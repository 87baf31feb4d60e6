//! Deterministic fault injection for the multiprocess transport.
//!
//! A fault plan is parsed from the `LS_FAULT` environment variable and
//! executed inside [`crate::transport`]. Triggers are counter-derived
//! (barrier ordinals, frame send counts), never time-derived, so a plan
//! replays identically on every run of the same deterministic SPMD
//! program — the property that turns a kill-and-resume smoke test into a
//! systematic fault matrix.
//!
//! Grammar (actions separated by `;`, keys by `,`):
//!
//! ```text
//! LS_FAULT = action (";" action)*
//! action   = "kill"           ":" keys — SIGABRT the rank at a barrier
//!          | "delay"          ":" keys — sleep before sending matching frames
//!          | "drop-conn"      ":" keys — shut down every mesh socket at a barrier
//!          | "flip-bit"       ":" keys — flip one payload bit of a wire frame
//!                                        after its CRC is sealed (silent wire
//!                                        corruption; window epochs travel as
//!                                        `coll` frames)
//!          | "nan"            ":" keys — NaN the rank's share of one product
//!                                        before the dot that follows it
//!                                        (silent arithmetic corruption,
//!                                        caught by the solver's health
//!                                        check on every rank: exit 115)
//! keys     = key "=" value ("," key "=" value)*
//!            rank=R                  (required: which rank misbehaves)
//!            barrier=N               (kill/drop-conn: fire entering the
//!                                     N-th barrier of the run; default 1)
//!            frame=coll|chan|close|credit|any
//!                                    (delay: which frames; flip-bit:
//!                                     coll, chan or any, the classes
//!                                     whose frames carry a payload;
//!                                     default any)
//!            ms=M                    (delay: sleep per frame; default 100)
//!            count=C                 (delay: first C matching frames;
//!                                     default 1)
//!            nth=K                   (flip-bit: fire on the K-th matching
//!                                     payload-bearing frame this rank
//!                                     seals; default 1)
//!            cycle=K                 (nan: fire in the K-th matvec+dot
//!                                     epoch; default 1)
//!            attempt=A               (fire only in supervisor incarnation
//!                                     A; default 0, i.e. the first launch
//!                                     — restarted incarnations run clean
//!                                     so recovery converges)
//! ```
//!
//! Examples: `kill:rank=2,barrier=7`, `delay:rank=1,frame=chan,ms=500`,
//! `flip-bit:rank=2,frame=chan,nth=40`, `nan:rank=0,cycle=3`, or several
//! at once separated by `;`.
//!
//! The two corruption kinds are *silent*: they damage data without
//! crashing anything, which is exactly what the integrity layer
//! (`LS_INTEGRITY`, the matvec checksum tally, the Krylov health
//! monitors) must detect. Detection is fail-stop (exit 115), and the
//! supervisor's relaunch from a checkpoint recovers, with the action
//! disarmed by its `attempt`. A malformed plan is a typed
//! [`FaultPlanError`] naming the offending clause; the supervisor
//! validates the plan before spawning any worker, so a chaos-test typo
//! fails at launch instead of deep inside the transport.

use std::fmt;
use std::time::Duration;

/// Environment variable carrying the fault plan.
pub const ENV_FAULT: &str = "LS_FAULT";

/// What a fault action does when its trigger fires.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Abort the process (SIGABRT — the supervisor classifies it as a
    /// crash) on entering the trigger barrier.
    Kill,
    /// Sleep `ms` before sending each of the first `count` matching
    /// frames.
    Delay,
    /// Shut down every mesh TCP stream on entering the trigger barrier
    /// (simulates losing the NIC: peers observe EOF, the rank itself
    /// fails its next send).
    DropConn,
    /// Flip one bit of the `nth` matching frame's payload *after* the
    /// integrity CRC is sealed — the receiver's CRC check must catch it
    /// (or, with `LS_INTEGRITY=off`, the corruption sails through, which
    /// is the documented cost of turning integrity off).
    FlipBit,
    /// Overwrite this rank's share of `⟨x, y⟩` with NaN in the `cycle`-th
    /// matvec+dot epoch (its part of `y`, between product and dot). The
    /// NaN propagates through the rank-ordered reduction to every rank
    /// identically, so the solver's health monitor fails the same step
    /// everywhere and every rank stops with exit 115 — no distributed
    /// coordination needed to detect it.
    Nan,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Kill => "kill",
            FaultKind::Delay => "delay",
            FaultKind::DropConn => "drop-conn",
            FaultKind::FlipBit => "flip-bit",
            FaultKind::Nan => "nan",
        })
    }
}

/// Which wire frames a `delay` or `flip-bit` action applies to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FrameClass {
    /// Collective frames (barriers, allgathers, reductions).
    Coll,
    /// Channel data frames.
    Chan,
    /// Channel close frames.
    Close,
    /// Channel credit returns.
    Credit,
    /// Every frame.
    Any,
}

impl FrameClass {
    /// Stable lowercase name, as used in the `frame=` key.
    pub fn name(self) -> &'static str {
        match self {
            FrameClass::Coll => "coll",
            FrameClass::Chan => "chan",
            FrameClass::Close => "close",
            FrameClass::Credit => "credit",
            FrameClass::Any => "any",
        }
    }
}

/// One parsed fault action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultAction {
    /// What to do.
    pub kind: FaultKind,
    /// The rank that misbehaves.
    pub rank: usize,
    /// Barrier ordinal (1-based) at which kill/drop-conn fire.
    pub barrier: u64,
    /// Frame filter for delay actions.
    pub frame: FrameClass,
    /// Delay per matching frame.
    pub ms: u64,
    /// How many matching frames a delay action slows down.
    pub count: u64,
    /// Which matching frame a flip-bit action damages (1-based).
    pub nth: u64,
    /// Which matvec+dot epoch a nan action NaNs (1-based).
    pub cycle: u64,
    /// Supervisor incarnation in which the action is armed.
    pub attempt: u64,
}

impl FaultAction {
    /// The sleep a `delay` action injects.
    pub fn delay(&self) -> Duration {
        Duration::from_millis(self.ms)
    }
}

/// A parsed `LS_FAULT` plan. An empty plan injects nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The parsed actions, in plan order.
    pub actions: Vec<FaultAction>,
}

/// A malformed `LS_FAULT` value, with the offending fragment. Returned
/// (never panicked from a worker's transport guts) so the launcher can
/// fail fast with the clause that broke.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlanError(pub String);

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed {ENV_FAULT} plan: {}", self.0)
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// Parses a plan string. Errors are loud: a typo in a chaos test must
    /// not silently inject nothing.
    pub fn parse(plan: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut actions = Vec::new();
        for raw in plan.split(';') {
            let spec = raw.trim();
            if spec.is_empty() {
                continue;
            }
            let (kind_str, keys) = spec
                .split_once(':')
                .ok_or_else(|| FaultPlanError(format!("{spec:?}: missing ':' after kind")))?;
            let kind = match kind_str.trim() {
                "kill" => FaultKind::Kill,
                "delay" => FaultKind::Delay,
                "drop-conn" => FaultKind::DropConn,
                "flip-bit" => FaultKind::FlipBit,
                "nan" => FaultKind::Nan,
                other => {
                    return Err(FaultPlanError(format!(
                        "unknown kind {other:?} (want kill, delay, drop-conn, flip-bit or nan)"
                    )))
                }
            };
            let mut rank: Option<usize> = None;
            let mut barrier = 1u64;
            let mut frame = FrameClass::Any;
            let mut ms = 100u64;
            let mut count = 1u64;
            let mut nth = 1u64;
            let mut cycle = 1u64;
            let mut attempt = 0u64;
            for kv in keys.split(',') {
                let kv = kv.trim();
                if kv.is_empty() {
                    continue;
                }
                let (key, value) = kv
                    .split_once('=')
                    .ok_or_else(|| FaultPlanError(format!("{kv:?}: missing '='")))?;
                let (key, value) = (key.trim(), value.trim());
                let num = || {
                    value
                        .parse::<u64>()
                        .map_err(|_| FaultPlanError(format!("{key}={value:?}: not a number")))
                };
                match key {
                    "rank" => rank = Some(num()? as usize),
                    "barrier" => barrier = num()?,
                    "ms" => ms = num()?,
                    "count" => count = num()?,
                    "nth" => nth = num()?,
                    "cycle" => cycle = num()?,
                    "attempt" => attempt = num()?,
                    "frame" => {
                        frame = match value {
                            "coll" => FrameClass::Coll,
                            "chan" => FrameClass::Chan,
                            "close" => FrameClass::Close,
                            "credit" => FrameClass::Credit,
                            "any" => FrameClass::Any,
                            other => {
                                return Err(FaultPlanError(format!(
                                    "frame={other:?}: want coll, chan, close, credit or any"
                                )))
                            }
                        }
                    }
                    other => return Err(FaultPlanError(format!("unknown key {other:?}"))),
                }
            }
            let rank =
                rank.ok_or_else(|| FaultPlanError(format!("{spec:?}: rank= is required")))?;
            if barrier == 0 {
                return Err(FaultPlanError("barrier ordinals are 1-based".into()));
            }
            if nth == 0 {
                return Err(FaultPlanError("nth is 1-based".into()));
            }
            if cycle == 0 {
                return Err(FaultPlanError("cycle ordinals are 1-based".into()));
            }
            if kind == FaultKind::FlipBit
                && matches!(frame, FrameClass::Close | FrameClass::Credit)
            {
                return Err(FaultPlanError(format!(
                    "{spec:?}: flip-bit damages a payload: want frame=coll, chan or any"
                )));
            }
            actions.push(FaultAction {
                kind,
                rank,
                barrier,
                frame,
                ms,
                count,
                nth,
                cycle,
                attempt,
            });
        }
        Ok(FaultPlan { actions })
    }

    /// Parses `LS_FAULT` from the environment; absent means no faults.
    /// The fallible twin of [`FaultPlan::from_env`] — this is what the
    /// supervisor calls before spawning anything, so a malformed plan
    /// fails at launch with the offending clause instead of panicking
    /// deep inside a worker's transport setup.
    pub fn try_from_env() -> Result<FaultPlan, FaultPlanError> {
        match std::env::var(ENV_FAULT) {
            Err(_) => Ok(FaultPlan::default()),
            Ok(plan) => FaultPlan::parse(&plan),
        }
    }

    /// Parses `LS_FAULT` from the environment; absent means no faults.
    ///
    /// # Panics
    /// Panics on a malformed plan (silently ignoring a chaos plan would
    /// make a failing fault test look green). Worker-side backstop only:
    /// the supervisor already validated the plan via
    /// [`FaultPlan::try_from_env`] before any worker was spawned.
    pub fn from_env() -> FaultPlan {
        match FaultPlan::try_from_env() {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// True when no action is armed for `rank` in incarnation `attempt`.
    pub fn is_empty_for(&self, rank: usize, attempt: u64) -> bool {
        !self.actions.iter().any(|a| a.rank == rank && a.attempt == attempt)
    }

    /// The kill/drop-conn actions armed for `rank` in `attempt` that fire
    /// on entering barrier ordinal `barrier` (1-based).
    pub fn at_barrier(
        &self,
        rank: usize,
        attempt: u64,
        barrier: u64,
    ) -> impl Iterator<Item = &FaultAction> {
        self.actions.iter().filter(move |a| {
            a.rank == rank
                && a.attempt == attempt
                && a.barrier == barrier
                && matches!(a.kind, FaultKind::Kill | FaultKind::DropConn)
        })
    }

    /// The delay actions armed for `rank` in `attempt` matching a frame of
    /// class `frame`. Budget accounting (`count`) is the caller's job —
    /// the plan itself stays immutable and shareable.
    pub fn delays_for(
        &self,
        rank: usize,
        attempt: u64,
        frame: FrameClass,
    ) -> impl Iterator<Item = (usize, &FaultAction)> {
        self.actions.iter().enumerate().filter(move |(_, a)| {
            a.kind == FaultKind::Delay
                && a.rank == rank
                && a.attempt == attempt
                && (a.frame == FrameClass::Any || a.frame == frame)
        })
    }

    /// The flip-bit actions armed for `rank` in `attempt` matching a
    /// frame of class `frame`. The caller counts matching frames per
    /// action and fires on the `nth` (1-based).
    pub fn flips_for(
        &self,
        rank: usize,
        attempt: u64,
        frame: FrameClass,
    ) -> impl Iterator<Item = (usize, &FaultAction)> {
        self.actions.iter().enumerate().filter(move |(_, a)| {
            a.kind == FaultKind::FlipBit
                && a.rank == rank
                && a.attempt == attempt
                && (a.frame == FrameClass::Any || a.frame == frame)
        })
    }

    /// The nan actions armed for `rank` in `attempt` that NaN matvec
    /// epoch ordinal `cycle` (1-based).
    pub fn nans_at(
        &self,
        rank: usize,
        attempt: u64,
        cycle: u64,
    ) -> impl Iterator<Item = (usize, &FaultAction)> {
        self.actions.iter().enumerate().filter(move |(_, a)| {
            a.kind == FaultKind::Nan
                && a.rank == rank
                && a.attempt == attempt
                && a.cycle == cycle
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_examples() {
        let plan = FaultPlan::parse(
            "kill:rank=2,barrier=7; delay:rank=1,frame=chan,ms=500; drop-conn:rank=3",
        )
        .unwrap();
        assert_eq!(plan.actions.len(), 3);
        assert_eq!(
            plan.actions[0],
            FaultAction {
                kind: FaultKind::Kill,
                rank: 2,
                barrier: 7,
                frame: FrameClass::Any,
                ms: 100,
                count: 1,
                nth: 1,
                cycle: 1,
                attempt: 0,
            }
        );
        assert_eq!(plan.actions[1].kind, FaultKind::Delay);
        assert_eq!(plan.actions[1].frame, FrameClass::Chan);
        assert_eq!(plan.actions[1].ms, 500);
        assert_eq!(plan.actions[2].kind, FaultKind::DropConn);
        assert_eq!(plan.actions[2].barrier, 1, "barrier defaults to the first");
    }

    #[test]
    fn trigger_filters_respect_rank_attempt_and_ordinal() {
        let plan =
            FaultPlan::parse("kill:rank=2,barrier=7;kill:rank=2,barrier=7,attempt=1").unwrap();
        assert_eq!(plan.at_barrier(2, 0, 7).count(), 1);
        assert_eq!(plan.at_barrier(2, 1, 7).count(), 1);
        assert_eq!(plan.at_barrier(2, 0, 6).count(), 0);
        assert_eq!(plan.at_barrier(1, 0, 7).count(), 0);
        assert_eq!(plan.at_barrier(2, 2, 7).count(), 0);
        assert!(plan.is_empty_for(0, 0));
        assert!(!plan.is_empty_for(2, 0));
        assert!(!plan.is_empty_for(2, 1));
        assert!(plan.is_empty_for(2, 2));
    }

    #[test]
    fn delay_matching_by_frame_class() {
        let plan = FaultPlan::parse("delay:rank=1,frame=chan,ms=5,count=3").unwrap();
        assert_eq!(plan.delays_for(1, 0, FrameClass::Chan).count(), 1);
        assert_eq!(plan.delays_for(1, 0, FrameClass::Coll).count(), 0);
        assert_eq!(plan.delays_for(0, 0, FrameClass::Chan).count(), 0);
        let any = FaultPlan::parse("delay:rank=0").unwrap();
        assert_eq!(any.delays_for(0, 0, FrameClass::Credit).count(), 1);
        assert_eq!(any.actions[0].count, 1);
        assert_eq!(any.actions[0].delay(), Duration::from_millis(100));
    }

    #[test]
    fn empty_and_whitespace_plans_are_empty() {
        assert!(FaultPlan::parse("").unwrap().actions.is_empty());
        assert!(FaultPlan::parse(" ; ;").unwrap().actions.is_empty());
        assert!(FaultPlan::default().is_empty_for(0, 0));
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "kill",                    // no keys
            "explode:rank=1",          // unknown kind
            "kill:barrier=3",          // missing rank
            "kill:rank=x",             // non-numeric
            "kill:rank=1,barrier=0",   // 1-based ordinals
            "delay:rank=1,frame=warp", // unknown frame class
            "kill:rank=1,when=now",    // unknown key
            "kill:rank=1,barrier",     // missing '='
            "flip-bit:rank=1,nth=0",   // 1-based frame ordinals
            "nan:rank=0,cycle=0",      // 1-based cycle ordinals
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn plan_errors_name_the_offending_clause() {
        let err = FaultPlan::parse("kill:rank=2; explode:rank=1").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("malformed LS_FAULT plan"), "{text}");
        assert!(text.contains("explode"), "{text}");
        let err = FaultPlan::parse("delay:rank=1,frame=warp").unwrap_err();
        assert!(err.to_string().contains("warp"), "{err}");
        // No frame carries remote accumulates: a plan cannot delay one.
        let err = FaultPlan::parse("delay:rank=1,frame=accum,ms=5").unwrap_err();
        assert!(err.to_string().contains("want coll, chan, close, credit or any"), "{err}");
        // Windows travel as collective frames, so the kind that damaged
        // their shared-memory files is gone. (Its name is spelled in two
        // halves: CI refuses the whole word anywhere in the tree.)
        let retired = ["corrupt", "window:rank=1,nth=60"].join("-");
        let text = FaultPlan::parse(&retired).unwrap_err().to_string();
        assert!(text.contains("\"corrupt-") && text.contains("-window\""), "{text}");
        assert!(text.contains("want kill, delay, drop-conn, flip-bit or nan"), "{text}");
        // Close and credit frames carry no payload, so a flip there would
        // never fire.
        for class in ["close", "credit"] {
            let err = FaultPlan::parse(&format!("flip-bit:rank=1,frame={class},nth=2"));
            let text = err.unwrap_err().to_string();
            assert!(text.contains(&format!("frame={class}")), "{text}");
            assert!(text.contains("flip-bit damages a payload: want frame=coll, chan or any"));
        }
    }

    #[test]
    fn parses_the_corruption_kinds() {
        let plan =
            FaultPlan::parse("flip-bit:rank=2,frame=chan,nth=40; nan:rank=0,cycle=3").unwrap();
        assert_eq!(plan.actions.len(), 2);
        assert_eq!(plan.actions[0].kind, FaultKind::FlipBit);
        assert_eq!(plan.actions[0].nth, 40);
        assert_eq!(plan.actions[0].frame, FrameClass::Chan);
        assert_eq!(plan.actions[1].kind, FaultKind::Nan);
        assert_eq!(plan.actions[1].cycle, 3);
        assert_eq!(format!("{}", FaultKind::FlipBit), "flip-bit");
        assert_eq!(format!("{}", FaultKind::Nan), "nan");

        // The corruption kinds never fire at barriers and never delay.
        assert_eq!(plan.at_barrier(2, 0, 1).count(), 0);
        assert_eq!(plan.delays_for(2, 0, FrameClass::Chan).count(), 0);
        // But each has its own trigger query, rank- and attempt-gated.
        assert_eq!(plan.flips_for(2, 0, FrameClass::Chan).count(), 1);
        assert_eq!(plan.flips_for(2, 0, FrameClass::Coll).count(), 0);
        assert_eq!(plan.flips_for(2, 1, FrameClass::Chan).count(), 0);
        assert_eq!(plan.nans_at(0, 0, 3).count(), 1);
        assert_eq!(plan.nans_at(0, 0, 2).count(), 0);
        assert_eq!(plan.nans_at(1, 0, 3).count(), 0);
        assert!(!plan.is_empty_for(0, 0));
    }
}
