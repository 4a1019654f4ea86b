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

echo "== perfbench smoke: one short run of every workload =="
# A workload exits non-zero when a guard fails (paper-kdj refuses a query
# that reports no buffer misses or no queue page writes) and ends with
# one JSON line whose "correct" says every result matched the serial
# library call. About 8 s in total on a 2-vCPU VM.
for workload in paper-kdj serve-mixed idj-cursor; do
    rc=0
    out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0)" || rc=$?
    [ "$rc" = "0" ] || { echo "perfbench smoke: $workload exited $rc"; printf '%s\n' "$out" | tail -n 5; exit 1; }
    printf '%s\n' "$out" | tail -n 1 | grep -q '"correct": true' \
        || { echo "perfbench smoke: $workload did not end with \"correct\": true"; \
             printf '%s\n' "$out" | tail -n 5; exit 1; }
done
echo "perfbench smoke: every workload exited 0 with correct results"

echo "== bench smoke: emitted JSON schema =="
# A tiny bench run; then validate the schema version and required columns
# so consumers of BENCH_kdj.json notice shape drift here, not downstream.
BENCH_SMOKE_JSON="$(mktemp -t bench_smoke.XXXXXX.json)"
trap 'rm -f "$BENCH_SMOKE_JSON"' EXIT
cargo run --release -q -p amdj-bench --bin amdj -- \
    bench --n 300 --k 20 --json "$BENCH_SMOKE_JSON" 2>/dev/null
grep -q '"schema_version": 14' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: schema_version != 14"; exit 1; }
# Row labels, every field `encode_stats` writes for a one-shot row's
# JoinStats, the serve section's header, and the serve rows' QueryReport.
for col in op algo threads k wall_time_s checkpoints_written \
           real_dist axis_dist mainq_insertions distq_insertions \
           compq_insertions comp_replays bound_tightenings \
           pairs_stolen steal_attempts barrier_idle_ns \
           stage1_expansions stage2_expansions node_requests node_disk_reads \
           buffer_hits buffer_misses buffer_evictions \
           buffer_hits_by_worker buffer_misses_by_worker \
           queue_page_reads queue_page_writes results stages \
           cpu_seconds io_seconds \
           transport connections admission_rejections \
           id queue_wait_ns; do
    grep -q "\"$col\":" "$BENCH_SMOKE_JSON" \
        || { echo "bench smoke: missing column '$col'"; exit 1; }
done
grep -q '"algo": "am-ckpt"' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: missing am-ckpt checkpoint-overhead row"; exit 1; }
# The serve section runs 144 mixed queries over 16 concurrent TCP
# connections (bit-identity against serial is asserted inside the bench
# itself) and emits one op="serve" row per query under a header naming
# the transport. Against the default 8-slot admission budget, 16
# connections guarantee some query visibly queued.
serve_rows="$(grep -c '"op": "serve"' "$BENCH_SMOKE_JSON" || true)"
[ "$serve_rows" = "144" ] \
    || { echo "bench smoke: $serve_rows serve rows, not 144"; exit 1; }
grep -q '"transport": "tcp"' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: serve section not on the tcp transport"; exit 1; }
# A single grep, not a `grep | grep -q` pipeline: under pipefail, -q
# exiting at the first match SIGPIPEs the upstream grep across 144
# serve rows. Each row is one line, with op before its report.
grep -Eq '"op": "serve".*"queue_wait_ns":[1-9]' "$BENCH_SMOKE_JSON" \
    || { echo "bench smoke: no serve row reports a nonzero queue wait"; exit 1; }
echo "bench smoke: schema_version 14 with all required columns and 144 serve rows"

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
# The interrupt hook caps each episode's pause budget, so the interrupted
# run stops at the same expansion every time: three runs must all exit
# 75 and print identical checkpoint lines.
for run in 1 2 3; do
    rc=0
    AMDJ_INTERRUPT_AFTER=25 $AMDJ kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" \
        --k 100 --algo am --checkpoint-path "$CKPT_DIR/run.snap" --checkpoint-every 10 \
        >/dev/null 2> "$CKPT_DIR/interrupt$run.err" || rc=$?
    [ "$rc" = "75" ] || { echo "checkpoint smoke: interrupted run $run exit $rc != 75"; exit 1; }
    grep '^# checkpoint:' "$CKPT_DIR/interrupt$run.err" > "$CKPT_DIR/interrupt$run.ckpt"
    [ -s "$CKPT_DIR/interrupt$run.ckpt" ] \
        || { echo "checkpoint smoke: interrupted run $run printed no checkpoint line"; exit 1; }
    cmp -s "$CKPT_DIR/interrupt1.ckpt" "$CKPT_DIR/interrupt$run.ckpt" \
        || { echo "checkpoint smoke: interrupted run $run stopped elsewhere than run 1"; \
             cat "$CKPT_DIR/interrupt1.ckpt" "$CKPT_DIR/interrupt$run.ckpt"; exit 1; }
done
[ -f "$CKPT_DIR/run.snap" ] || { echo "checkpoint smoke: no checkpoint written"; exit 1; }
$AMDJ kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --k 100 --algo par-am \
    --threads 4 --resume "$CKPT_DIR/run.snap" > "$CKPT_DIR/res.txt" 2> "$CKPT_DIR/res.err"
diff <(grep -v '^#' "$CKPT_DIR/ref.txt") <(grep -v '^#' "$CKPT_DIR/res.txt") \
    || { echo "checkpoint smoke: resumed results differ"; exit 1; }
# The interrupted aggressive join parked work, so the resume decoded and
# replayed compensation entries (the snapshot's entry codec end to end).
grep -Eq '^# resuming from .*, [1-9][0-9]* compensation entries$' "$CKPT_DIR/res.err" \
    || { echo "checkpoint smoke: the resumed snapshot carried no compensation entry"; \
         cat "$CKPT_DIR/res.err"; exit 1; }
# A version 1 image (byte 8 of the header) is refused cleanly: a usage
# error naming the version, not a panic (101) or a hang (124).
cp "$CKPT_DIR/run.snap" "$CKPT_DIR/v1.snap"
printf '\001' | dd of="$CKPT_DIR/v1.snap" bs=1 seek=8 count=1 conv=notrunc 2>/dev/null
rc=0
timeout 5 target/release/amdj kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --k 100 \
    --algo am --resume "$CKPT_DIR/v1.snap" >/dev/null 2> "$CKPT_DIR/v1.err" || rc=$?
case "$rc" in
    0|101|124) echo "checkpoint smoke: version 1 resume exit $rc"; exit 1 ;;
esac
grep -q 'unsupported snapshot version' "$CKPT_DIR/v1.err" \
    || { echo "checkpoint smoke: version 1 image refused for the wrong reason"; \
         cat "$CKPT_DIR/v1.err"; exit 1; }
echo "checkpoint smoke: interrupt exited 75, resume bit-identical, version 1 refused (exit $rc)"

echo "== tie smoke: every one-thread kdj path gives one answer =="
# A self-join: each object pairs with itself at distance 0, so k=100
# sits inside a tie group and the chosen pairs depend on traversal
# order. One worker is the sequential join, so the plain, par and
# checkpointed one-thread runs must print the same pairs. The
# checkpoint interval is too large to ever fire.
tie_kdj() {  # tie_kdj OUT ARGS...
    local out="$1"
    shift
    timeout 60 target/release/amdj kdj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/a.amdj" \
        --k 100 "$@" > "$CKPT_DIR/$out" 2>/dev/null \
        || { echo "tie smoke: 'kdj $*' failed"; exit 1; }
}
tie_kdj tie_am.txt --algo am
tie_kdj tie_par_am.txt --algo par-am --threads 1
tie_kdj tie_am_ckpt.txt --algo am --checkpoint-path "$CKPT_DIR/tie.snap" \
    --checkpoint-every 1000000000
tie_kdj tie_b.txt --algo b
tie_kdj tie_par.txt --algo par --threads 1
for other in tie_par_am tie_am_ckpt; do
    cmp -s "$CKPT_DIR/tie_am.txt" "$CKPT_DIR/$other.txt" \
        || { echo "tie smoke: $other differs from --algo am"; exit 1; }
done
cmp -s "$CKPT_DIR/tie_b.txt" "$CKPT_DIR/tie_par.txt" \
    || { echo "tie smoke: --algo par --threads 1 differs from --algo b"; exit 1; }
echo "tie smoke: am, par-am, checkpointed am agree; b and par agree"

echo "== idj --batch 0 smoke: rejected, not looped on =="
# A zero batch can never advance the streaming loop; the CLI must refuse
# it with a usage error instead of spinning. `timeout` turns a regression
# into a failure rather than a hung CI run.
rc=0
timeout 5 target/release/amdj idj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --take 10 --batch 0 \
    >/dev/null 2> "$CKPT_DIR/batch0.err" || rc=$?
[ "$rc" = "2" ] || { echo "idj --batch 0 smoke: exit $rc != 2 (124 = hung)"; exit 1; }
grep -q -- '--batch must be at least 1' "$CKPT_DIR/batch0.err" \
    || { echo "idj --batch 0 smoke: rejected for the wrong reason"; exit 1; }
echo "idj --batch 0 smoke: rejected with exit 2"

echo "== bad input smoke: invalid rows and distances rejected, not panicked on =="
# Input from outside the program (a CSV row, a --dist value) must fail as
# a usage error (exit 2) with a message naming the problem; a panic on an
# engine assertion would exit 101 instead.
printf '1,1,0,0,2\n' > "$CKPT_DIR/inverted.csv"
printf 'nan,0,1,1,3\n' > "$CKPT_DIR/nan.csv"
expect_usage_error() {  # expect_usage_error MESSAGE COMMAND...
    local msg="$1"
    shift
    rc=0
    timeout 5 "$@" >/dev/null 2> "$CKPT_DIR/bad.err" || rc=$?
    [ "$rc" = "2" ] || { echo "bad input smoke: '$*' exit $rc != 2"; exit 1; }
    grep -q -- "$msg" "$CKPT_DIR/bad.err" \
        || { echo "bad input smoke: '$*' rejected for the wrong reason"; cat "$CKPT_DIR/bad.err"; exit 1; }
}
for csv in inverted nan; do
    expect_usage_error "$csv.csv:1: invalid rectangle" \
        target/release/amdj build --input "$CKPT_DIR/$csv.csv" --out "$CKPT_DIR/$csv.amdj"
done
for dist in -1 NaN inf; do
    expect_usage_error '--dist must be finite and non-negative' \
        target/release/amdj within --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" --dist "$dist"
done
echo "bad input smoke: inverted and NaN rows, negative and non-finite --dist all exit 2"

echo "== serve smoke: protocol queries over one shared index =="
# Drive `amdj serve` over the protocol: three kdj queries, answered in
# order on stdin, then an IDJ cursor suspended across a server restart, each diffed
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
# Three kdj queries with distinct ids, fired back-to-back; stdin is one
# connection, so they are answered in order.
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
# Each kdj answer must match the one-shot CLI bit for bit.
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
echo "serve smoke: queries bit-identical, cursor survived restart, SIGINT exited 75"

echo "== stdin smoke: bad and oversized input on the serve pipe =="
# Stdin is served by the same handler loop as a socket connection. A
# line that is not UTF-8 gets one structured error and the session goes
# on; an unterminated line is refused once it outgrows the request cap,
# before it can grow the process.
printf '\377\376\n%s\n%s\n' '{"op":"kdj","id":"u","k":50}' '{"op":"shutdown"}' \
    | timeout 30 "$AMDJ_BIN" serve --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" \
        > "$SERVE_DIR/utf8.jsonl" 2>/dev/null \
    || { echo "stdin smoke: non-UTF-8 session did not exit 0"; exit 1; }
{ [ "$(grep -c '"ok":false' "$SERVE_DIR/utf8.jsonl")" = "1" ] \
    && sed -n 1p "$SERVE_DIR/utf8.jsonl" | grep -q '"ok":false'; } \
    || { echo "stdin smoke: expected one error line first"; cat "$SERVE_DIR/utf8.jsonl"; exit 1; }
diff <(grep '"id":"u"' "$SERVE_DIR/utf8.jsonl" | serve_pairs) \
     <(grep -v '^#' "$SERVE_DIR/kdj_am.txt") \
    || { echo "stdin smoke: kdj after a non-UTF-8 line differs from one-shot CLI"; exit 1; }
rc=0
timeout 30 "$AMDJ_BIN" serve --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" \
    --max-request-bytes 1024 \
    < <(head -c 100000000 /dev/zero | tr '\0' x) > "$SERVE_DIR/flood.jsonl" 2>/dev/null || rc=$?
[ "$rc" = "0" ] || { echo "stdin smoke: 100 MB unterminated line exit $rc"; exit 1; }
grep -q 'unterminated request exceeds 1024 bytes' "$SERVE_DIR/flood.jsonl" \
    || { echo "stdin smoke: 100 MB unterminated line not refused"; cat "$SERVE_DIR/flood.jsonl"; exit 1; }
# The socket-only flags cannot apply to stdin: a usage error, not
# silently ignored.
for flag in "--max-conns 4" "--idle-timeout-ms 100"; do
    # shellcheck disable=SC2086 # the flag and its value are two words
    expect_usage_error "${flag%% *} requires --listen" \
        "$AMDJ_BIN" serve --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/b.amdj" $flag
done
echo "stdin smoke: non-UTF-8 line answered with an error, 100 MB unterminated line refused, socket-only flags exit 2"

echo "== cursor tie smoke: a serve cursor pages through the distance-0 group =="
# The tie smoke's self-join opens with 1500 pairs at distance 0, so every
# pull window below ends inside that group. Pulls are driven in lockstep
# (a cursor serves one request at a time). The served distances must be
# the one-shot CLI's, in order; tied pairs may come in another order (the
# server delivers canonical (dist, r, s) order).
TIE_DIR="$CKPT_DIR/cursor_tie"
mkdir -p "$TIE_DIR"
mkfifo "$TIE_DIR/in"
timeout 60 "$AMDJ_BIN" serve --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/a.amdj" \
    < "$TIE_DIR/in" > "$TIE_DIR/out.jsonl" 2>/dev/null &
SERVE_PID=$!
exec 3> "$TIE_DIR/in"
printf '%s\n' '{"op":"idj_open","id":"t","take":200}' >&3
await_lines 1 "$TIE_DIR/out.jsonl"
for i in $(seq 1 8); do
    printf '%s\n' '{"op":"idj_pull","id":"t","n":25}' >&3
    await_lines $((i + 1)) "$TIE_DIR/out.jsonl"
done
printf '%s\n' '{"op":"idj_close","id":"t"}' >&3
await_lines 10 "$TIE_DIR/out.jsonl"
exec 3>&-
wait "$SERVE_PID" || { echo "cursor tie smoke: serve exit $?"; exit 1; }
if grep -q '"ok":false' "$TIE_DIR/out.jsonl"; then
    echo "cursor tie smoke: a request failed"
    grep '"ok":false' "$TIE_DIR/out.jsonl"
    exit 1
fi
grep '"op":"idj_pull"' "$TIE_DIR/out.jsonl" | serve_pairs | cut -d, -f3 > "$TIE_DIR/served.txt"
timeout 60 "$AMDJ_BIN" idj --r "$CKPT_DIR/a.amdj" --s "$CKPT_DIR/a.amdj" --take 200 --algo am \
    2>/dev/null | grep -v '^#' | cut -d, -f3 > "$TIE_DIR/cli.txt"
[ "$(wc -l < "$TIE_DIR/served.txt")" = "200" ] \
    || { echo "cursor tie smoke: $(wc -l < "$TIE_DIR/served.txt") distances served, not 200"; exit 1; }
cmp -s "$TIE_DIR/served.txt" "$TIE_DIR/cli.txt" \
    || { echo "cursor tie smoke: served distances differ from amdj idj --algo am"; exit 1; }
echo "cursor tie smoke: 200 served distances match the one-shot CLI in order"

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
    echo "== stress tier: engine_matrix + steal_schedules + checkpoint_resume + serve_concurrent + tie_heavy, 4x cases =="
    AMDJ_PROPTEST_CASES=48 cargo test -q --release \
        --package amdj-tests --test engine_matrix --test steal_schedules \
        --test checkpoint_resume --test serve_concurrent --test tie_heavy
fi

echo "ci.sh: all checks passed"
