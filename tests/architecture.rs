//! Architecture rules of the tree, checked by reading its source: what the
//! design promises in `docs/ARCHITECTURE.md` that the compiler cannot
//! enforce. Each test names the lines that break its rule. Doc comments
//! count. A pattern that would match this file is spelled in pieces.

use std::path::{Path, PathBuf};

/// Every file under the repository directories `dirs`, recursively.
fn files(dirs: &[&str]) -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut todo: Vec<PathBuf> = dirs.iter().map(|d| root.join(d)).collect();
    let mut out = Vec::new();
    while let Some(path) = todo.pop() {
        if path.is_dir() {
            todo.extend(std::fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
        } else {
            out.push(path);
        }
    }
    out
}

/// `path:line: text` of every line under `dirs` that contains one of
/// `needles` (files that are not UTF-8 text are skipped).
fn hits(dirs: &[&str], needles: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for path in files(dirs) {
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        for (i, line) in text.lines().enumerate() {
            if needles.iter().any(|n| line.contains(n)) {
                out.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    out
}

fn assert_none(dirs: &[&str], needles: &[&str]) {
    let found = hits(dirs, needles);
    assert!(found.is_empty(), "{needles:?} found:\n{}", found.join("\n"));
}

/// The backend decision lives in `ls_runtime::collective`: the
/// distributed algorithms never ask which transport is underneath.
#[test]
fn the_algorithms_do_not_know_which_transport_is_underneath() {
    assert_none(
        &["crates/dist/src", "crates/eigen/src", "crates/core/src"],
        &["transport::", "MpRuntime"],
    );
}

/// One scoped task set per run; the hand-written worker team it replaced
/// carried seven such sites.
#[test]
fn the_cluster_executor_stays_safe_code() {
    assert_none(&["crates/runtime/src/cluster.rs"], &["unsafe"]);
}

/// Plain adds where one thread owns a part go through the window's lane
/// view (`PartLanes::add_exclusive`), not through a raw pointer here.
#[test]
fn the_distributed_algorithms_stay_safe_code() {
    assert_none(&["crates/dist/src"], &["unsafe"]);
}

/// The bit kernels are safe code: the hash index's batch lookup probes
/// branch-free through bounds-checked slices, and vector width comes from
/// the x86-64-v3 baseline the compiler targets, not from intrinsics.
#[test]
fn the_bit_kernels_stay_safe_code() {
    assert_none(&["crates/kernels/src"], &["unsafe"]);
}

/// A thread that finds a channel full serves its own inbox (`PcEngine`'s
/// wait loop); a claim that blocks inside the channel would starve it.
#[test]
fn no_blocking_channel_claim() {
    assert_none(&["crates/runtime/src/transport.rs"], &["fn claim"]);
}

/// A restart compresses in place (`KrylovVec::combine_in_place`) and a
/// step — of the eigensolver and of the propagators' Krylov factorization
/// — moves its output into the basis: a second assembly helper or a clone
/// of the workspace would bring back the allocations
/// `tests/no_alloc_after_first_cycle.rs` counts, or a full-vector copy per
/// step.
#[test]
fn one_compression_path_and_no_per_step_copy() {
    assert_none(&["crates/eigen/src/restart.rs"], &["fn ritz_vectors", "w.clone()"]);
    assert_none(&["crates/eigen/src/lanczos.rs"], &["w.clone()"]);
}

/// No kernel has an explicit vector path: the closed-form product sums a
/// row where it generates it, so the segment gather whose AVX2 twin a
/// workload once paid for is a scalar loop, kept for the benchmark's
/// replay, and the engine names neither it nor the channel-outer pass
/// that fed it. A new explicit path brings its measurement.
#[test]
fn simd_lives_only_where_a_workload_pays() {
    assert_none(&["crates", "compat", "src"], &[&["#[target", "_feature"].concat()]);
    let knob = ["LS_", "SIMD"].concat();
    assert_none(&["crates", "compat", "src", "tests", "examples"], &[&knob]);
    let replay = [["ranked", "_channels"].concat(), ["accumulate", "_segment"].concat()];
    let replay: Vec<&str> = replay.iter().map(String::as_str).collect();
    assert_none(&["crates/core/src/matvec.rs"], &replay);
}

/// An emission resolves in one place: the group walk's sweep, generic
/// over its lane word, with no twin per word width and no unchecked
/// access to make up for it.
#[test]
fn the_group_walk_is_one_loop() {
    let resolves = hits(&["crates/basis/src"], &[&["fn ", "resolve"].concat()]);
    assert_eq!(resolves.len(), 1, "{}", resolves.join("\n"));
    assert_none(&["crates/basis/src"], &["unsafe"]);
}

/// A site permutation runs as a rotation of the word wherever it is one,
/// and one function decides where: `rotation_bases` derives the bases, it
/// alone reads a group element's Beneš network in `crates/basis/src`, and
/// the group walk and the enumeration filter both take their tables from
/// it.
#[test]
fn one_rotation_decomposition() {
    let name = ["rotation", "_bases"].concat();
    let def = format!("fn {name}(");
    let defs = hits(&["crates/basis/src"], &[&def]);
    assert_eq!(defs.len(), 1, "{}", defs.join("\n"));
    let readers = enclosing_fns(&["crates/basis/src"], &[[".network", "()"].concat()]);
    assert!(readers.len() == 1 && readers[0].contains(&def), "{}", readers.join("\n"));
    let users = enclosing_impls(&["crates/basis/src"], &format!("{name}("), &def);
    assert_eq!(users, ["impl RepFilter {", "impl<W: WalkWord> GroupWalk<W> {"]);
    assert_none(&["crates/basis/src"], &["unsafe"]);
}

/// The top-level `impl` line around each line of `dirs` that holds
/// `needle` but not `except`, up to each file's test module.
fn enclosing_impls(dirs: &[&str], needle: &str, except: &str) -> Vec<String> {
    let mut out = Vec::new();
    for path in files(dirs) {
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        let mut current = "outside any impl";
        for line in text.lines().take_while(|line| !line.starts_with("mod tests")) {
            if line.starts_with("impl") {
                current = line;
            } else if line.starts_with('}') {
                current = "outside any impl";
            } else if line.contains(needle) && !line.contains(except) {
                out.push(current.to_string());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// One search structure: a searched sector ranks by the hash index over
/// its sorted states, and the prefix buckets with their lockstep search
/// are gone.
#[test]
fn one_search_index() {
    let retired = [["Prefix", "Index"].concat(), ["INTER", "LEAVE"].concat()];
    let retired: Vec<&str> = retired.iter().map(String::as_str).collect();
    assert_none(&["crates", "compat", "src", "tests", "examples"], &retired);
}

/// A Krylov vector stores what it computes in (`f64` or `Complex64`):
/// the reduced-precision mode, its knob, its operator adapter and the
/// stored-element layer that existed for it are gone, and a second
/// storage width would bring them back.
#[test]
fn krylov_vectors_store_what_they_compute_in() {
    let retired =
        [["LS_", "PRECISION"].concat(), ["trait ", "Lane"].concat(), ["Mixed", "Op"].concat()];
    let retired: Vec<&str> = retired.iter().map(String::as_str).collect();
    assert_none(&["crates", "compat", "src", "tests", "examples"], &retired);
}

/// Window epochs ride the TCP mesh's collectives; the shared-memory
/// segment files, their positioned reads and writes and the fault kind
/// that damaged them are gone. The rendezvous directory stays under
/// `/dev/shm`, so the chaos smoke job still checks that no `ls-mp-*`
/// directory outlives a job.
#[test]
fn one_wire_under_multiprocess() {
    assert_none(&["crates/runtime/src"], &["read_exact_at", "write_all_at", "FileExt"]);
    let retired = ["corrupt", "window"].join("-");
    assert_none(&["crates", "tests", "examples", ".github"], &[&retired]);
}

/// Every mesh frame has one shape: `frame.rs` owns the tags, its `encode`
/// builds every frame and its `read` parses every one. A hand-built frame
/// or a second tag table would bring back a header layout of its own.
#[test]
fn one_frame_codec() {
    assert_none(&["crates/runtime/src"], &[&["put_u8(", "TAG_"].concat()]);
    let tags = hits(&["crates/runtime/src"], &[&["const ", "TAG_"].concat()]);
    let stray: Vec<&String> = tags.iter().filter(|h| !h.contains("frame.rs:")).collect();
    assert!(stray.is_empty(), "a frame tag outside frame.rs:\n{stray:?}");
    assert_eq!(tags.len(), 6, "{}", tags.join("\n"));
}

/// Every file the library writes is one sealed record: `record.rs` owns
/// the bytes on disk, and the formats it replaced (a byte-at-a-time
/// checksum, a second error enum, a borrowed twin of the checkpoint
/// state) stay gone. A file's non-test lines are those above its first
/// column-0 test-module attribute.
#[test]
fn one_file_codec() {
    let retired = [
        ["fnv", "1a64"].concat(),
        ["Load", "Error"].concat(),
        ["CheckpointState", "Ref"].concat(),
    ];
    let retired: Vec<&str> = retired.iter().map(String::as_str).collect();
    assert_none(&["crates", "tests", "examples"], &retired);

    let calls =
        [["fs::", "read("].concat(), ["fs::", "write("].concat(), ["fs::", "rename("].concat()];
    let test_module = ["#[cfg(", "test)]"].concat();
    let mut stray = Vec::new();
    for path in files(&["crates/eigen/src", "crates/core/src"]) {
        if path.ends_with("record.rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().take_while(|l| *l != test_module).enumerate() {
            if calls.iter().any(|c| line.contains(c.as_str())) {
                stray.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(stray.is_empty(), "file I/O outside record.rs:\n{}", stray.join("\n"));
}

/// The distributed producer makes one pass per emission: the block
/// generator's sink keys, routes and stages it, so no emission block is
/// built in between; and an owner resolves a batch where it lies, so no
/// copy of its states is made first.
#[test]
fn the_producer_routes_in_place_and_the_owner_copies_nothing() {
    let block = [["OffDiag", "Block"].concat(), ["apply_", "off_diag_block"].concat()];
    let block: Vec<&str> = block.iter().map(String::as_str).collect();
    assert_none(&["crates/dist/src/matvec/pc.rs"], &block);
    assert_none(&["crates/dist/src/matvec.rs"], &[&["need", "les"].concat()]);
}

/// Each line of `dirs` that holds one of `needles`, as the signature line of
/// the function around it (`path:line: fn …`).
fn enclosing_fns(dirs: &[&str], needles: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for path in files(dirs) {
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        let mut current = String::from("outside any function");
        for (i, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("fn ") || line.contains(" fn ") {
                current = format!("{}:{}: {}", path.display(), i + 1, line.trim());
            }
            if needles.iter().any(|n| line.contains(n.as_str())) {
                out.push(current.clone());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Lin's table arithmetic has one body (`LinView::rank_and_member`), and
/// one function hands it the half-tables it reads: the engine's
/// row pass, `LinTables::rank`, the batch ranking and the distributed keys
/// all rank through them, so a faster copy beside them cannot drift.
#[test]
fn lin_ranking_is_one_body() {
    let offsets = vec![[".lo", "["].concat(), [".hi", "["].concat()];
    let reads = vec![[".len() ", "- 1)]"].concat()];
    for needles in [offsets, reads] {
        let fns = enclosing_fns(&["crates/kernels/src"], &needles);
        assert_eq!(fns.len(), 1, "{needles:?} in {} functions:\n{}", fns.len(), fns.join("\n"));
    }
}

/// Every build run from the repository targets an x86-64-v3 CPU (AVX2,
/// BMI1/2, FMA, LZCNT, MOVBE) and no more, so one binary serves every such
/// host, and the library's entry points refuse any other by name
/// (`ls_kernels::simd::require_baseline`). No kernel dispatches on a wider
/// unit at run time either: `ls_kernels::simd::level` is a host
/// fingerprint only.
#[test]
fn the_cpu_baseline_is_x86_64_v3() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(".cargo/config.toml");
    let config = std::fs::read_to_string(&path).expect("the workspace's cargo config");
    let lines: Vec<&str> = config.lines().map(str::trim).collect();
    let at = lines.iter().position(|l| *l == r#"[target.'cfg(target_arch = "x86_64")']"#);
    let at = at.expect("an x86_64 target section");
    assert_eq!(lines.get(at + 1), Some(&r#"rustflags = ["-C", "target-cpu=x86-64-v3"]"#));
}

/// A row tests its channels in one place, the mask loop of `FireGroup`,
/// under every group: the walk iterates fire bits as the trivial group's
/// loop does. Only the scalar oracle `apply_off_diag` (and the tests that
/// hold the loop to it) compares a channel's pattern itself.
#[test]
fn one_firing_loop() {
    let test = [["& ch", ".sites"].concat(), [" == ch", ".in_pat"].concat()].concat();
    let fns = enclosing_fns(&["crates/basis/src"], &[test]);
    let (oracle, others): (Vec<&String>, Vec<&String>) =
        fns.iter().partition(|f| f.contains("pub fn apply_off_diag("));
    assert_eq!(oracle.len(), 1, "{fns:?}");
    let tests = |f: &&String| f.contains("fn check_rows_match_scalar<");
    assert!(others.iter().all(tests), "{others:?}");
}

/// Timing lives in one place, the repo benchmark (`benchmark/`, its own
/// workspace): no manifest of the main workspace names a bench harness or
/// the performance-model crate, and no crate keeps a `benches/` directory.
#[test]
fn one_timing_system() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests
        .extend(files(&["crates", "compat"]).into_iter().filter(|p| p.ends_with("Cargo.toml")));
    for path in &manifests {
        let text = std::fs::read_to_string(path).unwrap();
        for needle in ["criterion", "ls-perfmodel", "[[bench]]"] {
            assert!(!text.contains(needle), "{} names {needle}", path.display());
        }
    }
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let benches = krate.unwrap().path().join("benches");
        assert!(!benches.exists(), "{} exists", benches.display());
    }
}

/// A detected corruption is fail-stop: exit 115 and a supervised
/// relaunch from a checkpoint multiprocess, a typed unwind in process
/// that the caller resumes from its checkpoint. No second, in-job
/// recovery path: no rollback budget, no poison fan-out frame, no epoch
/// bits in collective sequence numbers, no transport drain.
#[test]
fn one_recovery_path() {
    assert_none(
        &["crates", "compat", "src", "examples", "tests"],
        &[
            concat!("LS_MAX_", "ROLLBACKS"),
            concat!("TAG_", "POISON"),
            concat!("EPOCH_", "SHIFT"),
            concat!("recover_from_", "corruption"),
            concat!("raise_if_", "poisoned"),
        ],
    );
}

/// One handle for the distributed product, one callable per Krylov
/// routine: callers build a `DistOp` once and hand it to the generic
/// routines of `ls-eigen`, which infer the vector storage from the state.
/// No crate defines a one-shot product, a public engine, a `_in` twin of a
/// propagator, a pool-less twin of a shared product or a distributed
/// wrapper that only builds a `DistOp` — except the one solve wrapper the
/// benchmark still calls.
#[test]
fn one_handle_per_distributed_product() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut srcs: Vec<String> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|k| format!("crates/{}/src", k.unwrap().file_name().to_string_lossy()))
        .collect();
    srcs.sort();
    let srcs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let fns = [
        "matvec_pc",
        "dist_lanczos_smallest",
        "dist_evolve_real_time",
        "dist_evolve_imaginary_time",
        "dist_spectral_coefficients",
        "evolve_real_time_in",
        "evolve_imaginary_time_in",
        "spectral_coefficients_in",
        "apply_pull",
        "apply_serial",
        "apply_batched_pull",
    ];
    let mut removed: Vec<String> =
        fns.iter().flat_map(|f| [format!("pub fn {f}<"), format!("pub fn {f}(")]).collect();
    removed.extend(
        ["pub struct PcEngine", "pub struct DistLanczosOptions", "pub type DistLanczosResult"]
            .map(String::from),
    );
    removed.push("pub mod dynamics".into());
    let removed: Vec<&str> = removed.iter().map(String::as_str).collect();
    assert_none(&srcs, &removed);
    let wrappers: Vec<String> = hits(&["crates/dist/src"], &["pub fn dist_"])
        .into_iter()
        .filter(|hit| !hit.contains("pub fn dist_thick_restart_lanczos<"))
        .collect();
    assert!(wrappers.is_empty(), "distributed wrappers:\n{}", wrappers.join("\n"));
}
