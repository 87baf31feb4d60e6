#!/usr/bin/env bash
# The kill-and-resume contract of examples/checkpoint_restart: a solve
# SIGKILLed at an arbitrary moment (here: as soon as its first checkpoint
# file appears) and rerun with the same command resumes from the
# checkpoint and finishes with eigenvalues BIT-IDENTICAL to an
# uninterrupted solve. The example prints them as exact hex bit patterns
# on the EIGENVALUES line, so a plain string compare is the bit compare.
#
#   kill_and_resume.sh <ckpt> <args...>
#
# The caller supplies the environment (LS_TRANSPORT, LS_LOCALES, ...)
# and greps the logs this leaves beside <ckpt> for anything more:
# <ckpt>.interrupted.log, <ckpt>.resumed.log, <ckpt>.reference.log.
set -euxo pipefail
CKPT=$1; shift
BIN=target/release/examples/checkpoint_restart
ARGS=("$@" --ckpt "$CKPT")

# 1. Start the solve and SIGKILL it once the checkpoint exists.
$BIN "${ARGS[@]}" --fresh > "$CKPT.interrupted.log" 2>&1 &
PID=$!
for _ in $(seq 1 600); do
  [ -f "$CKPT" ] && break
  kill -0 $PID 2>/dev/null || break
  sleep 0.05
done
test -f "$CKPT"  # the checkpoint must exist before the kill
kill -9 $PID || true
wait $PID || true
if grep -q EIGENVALUES "$CKPT.interrupted.log"; then
  echo "solve finished before the kill; widen the window"; exit 1
fi
# A multiprocess launcher's workers lose their stdin with it: the
# watchdog must have reaped them before the rerun (no-op in-process).
for _ in $(seq 1 100); do
  pgrep -f "checkpoint_restart.*--ckpt $CKPT" > /dev/null || break
  sleep 0.1
done
if pgrep -f "checkpoint_restart.*--ckpt $CKPT"; then
  echo "orphaned workers outlived their launcher"; exit 1
fi

# 2. Rerun the same command: it resumes and completes.
$BIN "${ARGS[@]}" > "$CKPT.resumed.log" 2>&1
grep -q "resuming from checkpoint" "$CKPT.resumed.log"
grep EIGENVALUES "$CKPT.resumed.log"

# 3. Uninterrupted reference run (fresh checkpoint path).
$BIN "${ARGS[@]}" --fresh --verify > "$CKPT.reference.log" 2>&1
grep -q VERIFIED "$CKPT.reference.log"

# 4. Bit-identical eigenvalues.
diff <(grep EIGENVALUES "$CKPT.resumed.log") <(grep EIGENVALUES "$CKPT.reference.log")
echo "kill-and-resume OK ($CKPT): resumed run bit-identical to reference"
