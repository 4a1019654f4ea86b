#!/usr/bin/env bash
# Local CI: formatting, lints, full test suite. Vendored crates under
# vendor/ are workspace-excluded and deliberately not linted.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo bench --no-run (benches must keep compiling) =="
cargo bench --no-run --workspace

echo "== cargo doc (no deps, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo test =="
cargo test -q

echo "== perfbench self-tests (the benchmark must build against the engine and serve APIs) =="
# perfbench/ is a workspace of its own, so the workspace-wide steps above
# never compile it; an engine or serve API change that breaks the
# benchmark's build fails here instead of at benchmark time.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== bench smoke: emitted JSON schema =="
# A tiny bench run; then validate the schema version and required columns
# so consumers of BENCH_kdj.json notice shape drift here, not downstream.
BENCH_SMOKE_JSON="$(mktemp -t bench_smoke.XXXXXX.json)"
trap 'rm -f "$BENCH_SMOKE_JSON"' EXIT
cargo run --release -q -p amdj-bench --bin amdj -- \
    bench --n 300 --k 20 --json "$BENCH_SMOKE_JSON" 2>/dev/null
grep -q '"schema_version": 9' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: schema_version != 9"; exit 1; }
for col in op algo dataset query_id transport connections threads steal partition \
           prefilter k partitions \
           wall_time_s node_accesses \
           pairs_computed quantized_rejects exact_dist_skipped results \
           pairs_stolen steal_attempts barrier_idle_ns \
           buffer_hits buffer_misses buffer_evictions buffer_hit_rate \
           queue_wait_ns admission_rejections \
           buffer_hits_by_worker buffer_misses_by_worker \
           checkpoints_written partition_pairs_total partition_pairs_pruned \
           partition_pairs_replayed partition_pairs_never_needed; do
    grep -q "\"$col\":" "$BENCH_SMOKE_JSON" \
        || { echo "bench smoke: missing column '$col'"; exit 1; }
done
grep -q '"partition": "rr"' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: missing round-robin ablation rows"; exit 1; }
grep -q '"algo": "am-ckpt"' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: missing am-ckpt checkpoint-overhead row"; exit 1; }
grep -q '"prefilter": false' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: missing prefilter-off ablation row"; exit 1; }
grep -Eq '"quantized_rejects": [1-9]' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: prefilter never rejected a candidate"; exit 1; }
# The partitioned clustered row must actually prune partition pairs, and
# the partitioned plan must return the same result count as its
# monolithic ablation twin (the plan is bit-identical; the CLI smoke
# below diffs the full result stream).
grep '"dataset": "clustered"' "$BENCH_SMOKE_JSON" | grep '"partitions": 8' \
    | grep -Eq '"partition_pairs_pruned": [1-9]' \
    || { echo "bench smoke: partitioned clustered row never pruned a pair"; exit 1; }
mono_results=$(grep '"dataset": "clustered"' "$BENCH_SMOKE_JSON" \
    | grep '"partitions": 0,' | grep -o '"results": [0-9]*')
part_results=$(grep '"dataset": "clustered"' "$BENCH_SMOKE_JSON" \
    | grep '"partitions": 8,' | grep -o '"results": [0-9]*')
[ -n "$mono_results" ] && [ "$mono_results" = "$part_results" ] \
    || { echo "bench smoke: partitioned results ($part_results) != monolithic ($mono_results)"; exit 1; }
# The serve section runs 144 mixed queries over 16 concurrent TCP
# connections (bit-identity against serial is asserted inside the bench
# itself) and emits one op="serve" row per query, tagged with the
# transport. Against the default 8-slot admission budget, 16 connections
# guarantee some query visibly queued.
grep -q '"op": "serve"' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: missing serve rows"; exit 1; }
# Single greps, not `grep | grep -q` pipelines: under pipefail, -q
# exiting at the first match SIGPIPEs the upstream grep across 144
# serve rows. Each row is one line, with op before the other columns.
grep -Eq '"op": "serve".*"transport": "tcp"' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: serve rows not tagged with the tcp transport"; exit 1; }
grep -Eq '"op": "serve".*"queue_wait_ns": [1-9]' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: no serve row reports a nonzero queue wait"; exit 1; }
echo "bench smoke: schema_version 9 with all required columns, partition pruning fired"

echo "== checkpoint smoke: interrupt, resume, compare =="
# An interrupted join must exit 75 with a checkpoint on disk, and the
# resumed run must finish with the uninterrupted run's exact results.
CKPT_DIR="$(mktemp -d -t ckpt_smoke.XXXXXX)"
trap 'rm -f "$BENCH_SMOKE_JSON"; rm -rf "$CKPT_DIR"' EXIT
AMDJ="cargo run --release -q -p amdj-bench --bin amdj --"
$AMDJ generate --kind uniform --n 1500 --seed 7 --out "$CKPT_DIR/a.csv" >/dev/null
$AMDJ generate --kind clustered --n 1500 --seed 8 --out "$CKPT_DIR/b.csv" >/dev/null
$AMDJ build --input "$CKPT_DIR/a.csv" --out "$CKPT_DIR/a.amdj" >/dev/null
$AMDJ build --input "$CKPT_DIR/b.csv" --out "$CKPT_DIR/b.amdj" >/dev/null
$AMDJ kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --k 100 --algo am \
    > "$CKPT_DIR/ref.txt" 2>/dev/null
rc=0
AMDJ_INTERRUPT_AFTER=25 $AMDJ kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" \
    --k 100 --algo am --checkpoint-path "$CKPT_DIR/run.snap" --checkpoint-every 10 \
    >/dev/null 2>&1 || rc=$?
[ "$rc" = "75" ] || { echo "checkpoint smoke: interrupted exit $rc != 75"; exit 1; }
[ -f "$CKPT_DIR/run.snap" ] || { echo "checkpoint smoke: no checkpoint written"; exit 1; }
$AMDJ kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --k 100 --algo par-am \
    --threads 4 --resume "$CKPT_DIR/run.snap" > "$CKPT_DIR/res.txt" 2>/dev/null
diff <(grep -v '^#' "$CKPT_DIR/ref.txt") <(grep -v '^#' "$CKPT_DIR/res.txt") \
    || { echo "checkpoint smoke: resumed results differ"; exit 1; }
echo "checkpoint smoke: interrupt exited 75, resume bit-identical"

echo "== kernel ablation smoke: quantized prefilter on vs off =="
# The same join with the quantized MBR prefilter on (default) and off
# must print byte-identical results — the screen is an optimization, not
# an approximation. Reuses the indexes the checkpoint smoke built.
$AMDJ kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --k 100 --algo am \
    > "$CKPT_DIR/q_on.txt" 2>/dev/null
$AMDJ kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --k 100 --algo am \
    --no-prefilter > "$CKPT_DIR/q_off.txt" 2>/dev/null
diff <(grep -v '^#' "$CKPT_DIR/q_on.txt") <(grep -v '^#' "$CKPT_DIR/q_off.txt") \
    || { echo "kernel ablation smoke: prefilter changed join results"; exit 1; }
echo "kernel ablation smoke: prefilter on/off bit-identical"

echo "== partitioned plan smoke: STR tiling + pruning vs monolithic =="
# The same aggressive join as the checkpoint smoke's reference, run as an
# 8-partition plan: STR tiling, bounds-only partition-pair pruning, and
# compensation replay must not move a single byte of output.
$AMDJ kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --k 100 --algo am \
    --partitions 8 > "$CKPT_DIR/part.txt" 2>/dev/null
diff <(grep -v '^#' "$CKPT_DIR/ref.txt") <(grep -v '^#' "$CKPT_DIR/part.txt") \
    || { echo "partitioned plan smoke: partitioned results differ"; exit 1; }
# The plan is deliberately not resumable; the flag combination must be
# rejected up front rather than silently dropping one of the two.
if $AMDJ kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --k 100 --algo am \
    --partitions 8 --checkpoint-path "$CKPT_DIR/nope.snap" >/dev/null 2>&1; then
    echo "partitioned plan smoke: --partitions + checkpointing not rejected"; exit 1
fi
echo "partitioned plan smoke: partitioned results bit-identical to monolithic"

echo "== serve smoke: concurrent protocol queries over one shared index =="
# Drive `amdj serve` over the protocol: three concurrent kdj queries,
# then an IDJ cursor suspended across a server restart, each diffed
# against the one-shot CLI. Uses the release binary directly (not
# `cargo run`) so SIGINT reaches the server, not the cargo wrapper.
# Dependent requests on one cursor are driven in lockstep — a cursor is
# checked out per request and concurrent ops on it fail fast by design.
SERVE_DIR="$CKPT_DIR/serve"
mkdir -p "$SERVE_DIR/state"
AMDJ_BIN="target/release/amdj"
[ -x "$AMDJ_BIN" ] || cargo build --release -q -p amdj-bench --bin amdj
# Turns a serve Results line into the CLI's r,s,dist lines.
serve_pairs() {
    grep -o '"r":[0-9]*,"s":[0-9]*,"dist":[0-9.e-]*' | sed 's/"[a-z]*"://g'
}
await_lines() {  # lockstep: wait until $2 holds at least $1 response lines
    for _ in $(seq 1 200); do
        [ "$(wc -l < "$2")" -ge "$1" ] && return 0
        sleep 0.05
    done
    echo "serve smoke: timed out waiting for $1 responses in $2"; exit 1
}
mkfifo "$SERVE_DIR/in1"
"$AMDJ_BIN" serve --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" \
    --state-dir "$SERVE_DIR/state" \
    < "$SERVE_DIR/in1" > "$SERVE_DIR/out1.jsonl" 2>/dev/null &
SERVE_PID=$!
exec 3> "$SERVE_DIR/in1"
# Three concurrent kdj queries with distinct ids, fired back-to-back.
printf '%s\n' \
    '{"op":"kdj","id":"q1","k":50}' \
    '{"op":"kdj","id":"q2","k":50,"aggressive":false}' \
    '{"op":"kdj","id":"q3","k":50,"threads":2}' >&3
await_lines 3 "$SERVE_DIR/out1.jsonl"
# An IDJ cursor: open, pull a prefix, leave it open for the shutdown
# checkpoint into --state-dir.
printf '%s\n' '{"op":"idj_open","id":"c1","take":40}' >&3
await_lines 4 "$SERVE_DIR/out1.jsonl"
printf '%s\n' '{"op":"idj_pull","id":"c1","n":25}' >&3
await_lines 5 "$SERVE_DIR/out1.jsonl"
printf '%s\n' '{"op":"shutdown"}' >&3
exec 3>&-
wait "$SERVE_PID" || { echo "serve smoke: shutdown exit $?"; exit 1; }
if grep -q '"ok":false' "$SERVE_DIR/out1.jsonl"; then
    echo "serve smoke: a request failed"
    grep '"ok":false' "$SERVE_DIR/out1.jsonl"
    exit 1
fi
# Each concurrent kdj answer must match the one-shot CLI bit for bit.
$AMDJ kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --k 50 --algo am \
    > "$SERVE_DIR/kdj_am.txt" 2>/dev/null
$AMDJ kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --k 50 --algo b \
    > "$SERVE_DIR/kdj_b.txt" 2>/dev/null
for q in q1:kdj_am q2:kdj_b q3:kdj_am; do
    id="${q%%:*}"; ref="${q##*:}"
    diff <(grep "\"id\":\"$id\"" "$SERVE_DIR/out1.jsonl" | serve_pairs) \
         <(grep -v '^#' "$SERVE_DIR/$ref.txt") \
        || { echo "serve smoke: $id differs from one-shot CLI"; exit 1; }
done
# Restart with the same --state-dir: c1 resumes at 25 delivered; the
# remainder plus the first window must equal the one-shot IDJ stream.
mkfifo "$SERVE_DIR/in2"
"$AMDJ_BIN" serve --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" \
    --state-dir "$SERVE_DIR/state" \
    < "$SERVE_DIR/in2" > "$SERVE_DIR/out2.jsonl" 2>/dev/null &
SERVE_PID=$!
exec 3> "$SERVE_DIR/in2"
printf '%s\n' '{"op":"idj_pull","id":"c1","n":15}' >&3
await_lines 1 "$SERVE_DIR/out2.jsonl"
printf '%s\n' '{"op":"shutdown"}' >&3
exec 3>&-
wait "$SERVE_PID" || { echo "serve smoke: restart shutdown exit $?"; exit 1; }
$AMDJ idj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --take 40 --algo am \
    > "$SERVE_DIR/idj.txt" 2>/dev/null
diff <(cat <(grep '"op":"idj_pull"' "$SERVE_DIR/out1.jsonl" | serve_pairs) \
           <(grep '"op":"idj_pull"' "$SERVE_DIR/out2.jsonl" | serve_pairs)) \
     <(grep -v '^#' "$SERVE_DIR/idj.txt") \
    || { echo "serve smoke: suspended+resumed cursor stream differs"; exit 1; }
# SIGINT must drain, checkpoint open cursors, and exit 75.
mkfifo "$SERVE_DIR/in3"
"$AMDJ_BIN" serve --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" \
    --state-dir "$SERVE_DIR/state3" \
    < "$SERVE_DIR/in3" > "$SERVE_DIR/out3.jsonl" 2>/dev/null &
SERVE_PID=$!
exec 3> "$SERVE_DIR/in3"
printf '%s\n' '{"op":"idj_open","id":"sig","take":30}' >&3
await_lines 1 "$SERVE_DIR/out3.jsonl"
kill -INT "$SERVE_PID"
rc=0; wait "$SERVE_PID" || rc=$?
exec 3>&-
[ "$rc" = "75" ] || { echo "serve smoke: SIGINT exit $rc != 75"; exit 1; }
# Snapshot files are named by the hex of the cursor id ("sig" = 736967),
# so arbitrary ids neither collide nor corrupt the manifest.
[ -f "$SERVE_DIR/state3/736967.snap" ] \
    || { echo "serve smoke: SIGINT left no cursor checkpoint"; exit 1; }
echo "serve smoke: concurrent queries bit-identical, cursor survived restart, SIGINT exited 75"

echo "== socket smoke: amdj serve --listen over TCP =="
# The same protocol over a real socket: kdj and an IDJ cursor driven
# through bash's /dev/tcp, diffed against the one-shot CLI; then SIGINT
# must drain the connection, checkpoint the open cursor, and exit 75;
# a restarted server must resume the cursor over a fresh connection.
SOCK_DIR="$CKPT_DIR/sock"
mkdir -p "$SOCK_DIR/state"
await_port() {  # parse the ephemeral port from the "# listening on" line
    for _ in $(seq 1 200); do
        PORT="$(sed -n 's/^# listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$1")"
        [ -n "$PORT" ] && return 0
        sleep 0.05
    done
    echo "socket smoke: server never printed its listening address"; exit 1
}
"$AMDJ_BIN" serve --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" \
    --state-dir "$SOCK_DIR/state" --listen 127.0.0.1:0 --max-conns 64 \
    2> "$SOCK_DIR/err1.txt" &
SERVE_PID=$!
await_port "$SOCK_DIR/err1.txt"
exec 4<>"/dev/tcp/127.0.0.1/$PORT"
printf '%s\n' '{"op":"kdj","id":"t1","k":50}' >&4
IFS= read -r resp <&4
printf '%s\n' "$resp" | grep -q '"ok":true' \
    || { echo "socket smoke: kdj over tcp failed: $resp"; exit 1; }
diff <(printf '%s\n' "$resp" | serve_pairs) \
     <(grep -v '^#' "$SERVE_DIR/kdj_am.txt") \
    || { echo "socket smoke: kdj over tcp differs from one-shot CLI"; exit 1; }
printf '%s\n' '{"op":"idj_open","id":"tc","take":40}' >&4
IFS= read -r resp <&4
printf '%s\n' "$resp" | grep -q '"ok":true' \
    || { echo "socket smoke: idj_open over tcp failed: $resp"; exit 1; }
printf '%s\n' '{"op":"idj_pull","id":"tc","n":25}' >&4
IFS= read -r pull1 <&4
printf '%s\n' "$pull1" | grep -q '"ok":true' \
    || { echo "socket smoke: idj_pull over tcp failed: $pull1"; exit 1; }
# SIGINT with the connection open and the cursor mid-stream: drain,
# checkpoint into --state-dir, exit 75.
kill -INT "$SERVE_PID"
rc=0; wait "$SERVE_PID" || rc=$?
exec 4>&- 4<&-
[ "$rc" = "75" ] || { echo "socket smoke: SIGINT exit $rc != 75"; exit 1; }
# "tc" hex-encodes to 7463.
[ -f "$SOCK_DIR/state/7463.snap" ] \
    || { echo "socket smoke: SIGINT left no cursor checkpoint"; exit 1; }
# Restart over a fresh socket; the resumed cursor's remainder plus the
# first window must equal the one-shot IDJ stream.
"$AMDJ_BIN" serve --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" \
    --state-dir "$SOCK_DIR/state" --listen 127.0.0.1:0 \
    2> "$SOCK_DIR/err2.txt" &
SERVE_PID=$!
await_port "$SOCK_DIR/err2.txt"
exec 4<>"/dev/tcp/127.0.0.1/$PORT"
printf '%s\n' '{"op":"idj_pull","id":"tc","n":15}' >&4
IFS= read -r pull2 <&4
printf '%s\n' "$pull2" | grep -q '"ok":true' \
    || { echo "socket smoke: resumed pull over tcp failed: $pull2"; exit 1; }
printf '%s\n' '{"op":"shutdown"}' >&4
IFS= read -r resp <&4
exec 4>&- 4<&-
wait "$SERVE_PID" || { echo "socket smoke: shutdown exit $?"; exit 1; }
diff <(printf '%s\n%s\n' "$pull1" "$pull2" | serve_pairs) \
     <(grep -v '^#' "$SERVE_DIR/idj.txt") \
    || { echo "socket smoke: suspended+resumed tcp cursor stream differs"; exit 1; }
echo "socket smoke: tcp queries bit-identical, SIGINT exited 75, cursor resumed over a fresh socket"

# Stress tier (opt-in: STRESS=1 ./ci.sh): rerun the engine-matrix and
# schedule-perturbation properties in release mode with 4× the proptest
# cases. Both suites include 8-thread cells, so this is where racy
# work-stealing regressions that survive the quick tier get shaken out.
if [ "${STRESS:-0}" = "1" ]; then
    echo "== stress tier: engine_matrix + steal_schedules + checkpoint_resume + partitioned_matrix + serve_concurrent, 4x cases =="
    AMDJ_PROPTEST_CASES=48 cargo test -q --release \
        --package amdj-tests --test engine_matrix --test steal_schedules \
        --test checkpoint_resume --test partitioned_matrix --test serve_concurrent
fi

echo "ci.sh: all checks passed"
