#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, then a figure-pipeline smoke that checks
# every per-figure JSON artifact parses and archives one Konata trace.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> sweep smoke: fig10 --quick --jobs 2 (timed)"
# Quick-run artifacts go to a scratch dir so CI never clobbers the committed
# full-suite artifacts under results/.
scratch="results/ci-quick"
rm -rf "$scratch"
mkdir -p "$scratch"
export HELIOS_RESULTS_DIR="$scratch"
sweep_start=$(date +%s)
cargo run --release -q -p helios-bench --bin fig10 -- --quick --jobs 2 > /dev/null
sweep_end=$(date +%s)
echo "sweep smoke: $((sweep_end - sweep_start))s wall"

echo "==> fuzz smoke: fixed-seed differential campaign + corpus replay"
cargo run --release -q -p helios-bench --bin fuzz -- --seed 1 --iters 500 --quiet
cargo run --release -q -p helios-bench --bin fuzz -- --replay tests/corpus

echo "==> figure smoke: every report binary on the --quick subset"
for bin in fig02 fig03 fig04 fig05 fig08 fig09 table1 table2 table3 ablation; do
    echo "  -> $bin"
    cargo run --release -q -p helios-bench --bin "$bin" -- --quick --jobs 2 > /dev/null
done
# inspect is the one binary that prints the stats registry: its dump must
# carry the first counter, the last counter and the last gauge.
echo "  -> inspect --obs"
cargo run --release -q -p helios-bench --bin inspect -- --only crc32 --obs > "$scratch/inspect.out"
for entry in cycles fusion.repair.catalyst_flush fusion.fused_pct_of_uops; do
    grep -qE "^ +${entry//./\\.} " "$scratch/inspect.out" || {
        echo "ci: FAIL — inspect --obs dump lacks registry entry $entry" >&2
        exit 1
    }
done

echo "==> validating per-figure JSON artifacts"
for id in fig02 fig03 fig04 fig05 fig08 fig09 fig10 table1 table2 table3 ablation fuzz; do
    json="$scratch/$id.json"
    if [ ! -f "$json" ]; then
        echo "ci: FAIL — missing figure artifact $json" >&2
        exit 1
    fi
    if ! python3 -m json.tool "$json" > /dev/null; then
        echo "ci: FAIL — unparsable figure artifact $json" >&2
        exit 1
    fi
done
echo "all figure JSON artifacts parse"

echo "==> resilience smoke: injected chaos must yield a partial, annotated report"
# One panicking cell and one timing-out cell (both in the --quick set): the
# sweep must finish every other cell, name both casualties in the JSON
# artifact, and exit with the PARTIAL code (3).
fig10=(cargo run --release -q -p helios-bench --bin fig10 -- --quick --jobs 2)
set +e
HELIOS_SWEEP_CHAOS="bitcount/Helios=panic,fft/NoFusion=timeout" \
    "${fig10[@]}" > /dev/null 2> /dev/null
chaos_rc=$?
set -e
if [ "$chaos_rc" -ne 3 ]; then
    echo "ci: FAIL — chaos sweep exited $chaos_rc, expected 3 (partial)" >&2
    exit 1
fi
grep -q '"bitcount/Helios": "failed' "$scratch/fig10.json" || {
    echo "ci: FAIL — chaos report missing quarantined panic cell" >&2
    exit 1
}
grep -q '"fft/NoFusion": "timed out' "$scratch/fig10.json" || {
    echo "ci: FAIL — chaos report missing timed-out cell" >&2
    exit 1
}
echo "chaos sweep: partial exit + both casualties annotated"

echo "==> resilience smoke: interrupted sweep resumes byte-identically"
# Reference uninterrupted run, then a run stopped after 17 cells (the
# deterministic stand-in for kill -9), then a --resume run. Stdout must match
# the reference byte for byte, and the resumed checkpoint journal must hold
# the reference journal's lines: the full SimStats of all 48 cells.
rm -f "$scratch/fig10.ckpt.jsonl"
"${fig10[@]}" > "$scratch/ref.out" 2> /dev/null
cp "$scratch/fig10.ckpt.jsonl" "$scratch/ref.ckpt.jsonl"
rm -f "$scratch/fig10.ckpt.jsonl"
set +e
HELIOS_SWEEP_STOP_AFTER=17 "${fig10[@]}" > /dev/null 2> /dev/null
int_rc=$?
set -e
if [ "$int_rc" -ne 130 ]; then
    echo "ci: FAIL — interrupted sweep exited $int_rc, expected 130" >&2
    exit 1
fi
"${fig10[@]}" --resume > "$scratch/resumed.out" 2> "$scratch/resumed.err"
# Byte-identity alone would also pass a --resume that ignored the journal
# and re-simulated every cell; require that the 17 finished cells restored.
grep -q "resume: restored 17/48" "$scratch/resumed.err" || {
    echo "ci: FAIL — resumed sweep did not restore the 17 journaled cells:" >&2
    grep "resume:" "$scratch/resumed.err" >&2 || true
    exit 1
}
cmp "$scratch/ref.out" "$scratch/resumed.out" || {
    echo "ci: FAIL — resumed sweep stdout differs from uninterrupted run" >&2
    exit 1
}
# Journal lines are appended in completion order, which varies with the
# worker count and host load; compare them as sets.
cmp <(sort "$scratch/ref.ckpt.jsonl") <(sort "$scratch/fig10.ckpt.jsonl") || {
    echo "ci: FAIL — resumed checkpoint journal differs from uninterrupted run" >&2
    exit 1
}
echo "resume smoke: interrupted at 17/48, resumed byte-identically"

echo "==> resilience smoke: sweep-executor chaos soak"
cargo run --release -q -p helios-bench --bin soak -- --sweep-chaos --quick --jobs 2

echo "==> trace store smoke: cold vs warm vs live fig10 --quick"
# A sweep through a cold store must record every workload; the same sweep
# against the warm store must record nothing (pure hits, traces streamed
# from disk) and produce byte-identical stdout; and both must match the
# store-less (live in-memory) reference captured above.
tstore="$scratch/traces"
rm -rf "$tstore"
HELIOS_TRACE_DIR="$tstore" "${fig10[@]}" > "$scratch/cold.out" 2> "$scratch/cold.err"
HELIOS_TRACE_DIR="$tstore" "${fig10[@]}" > "$scratch/warm.out" 2> "$scratch/warm.err"
grep -q "trace store: 0 recorded" "$scratch/warm.err" || {
    echo "ci: FAIL — warm trace store still recorded (want pure hits):" >&2
    grep "trace store:" "$scratch/warm.err" >&2 || true
    exit 1
}
cmp "$scratch/cold.out" "$scratch/warm.out" || {
    echo "ci: FAIL — warm-store fig10 stdout differs from cold-store run" >&2
    exit 1
}
cmp "$scratch/ref.out" "$scratch/cold.out" || {
    echo "ci: FAIL — store-backed fig10 stdout differs from live (store-less) run" >&2
    exit 1
}
echo "trace store: cold/warm/live stdout byte-identical, warm run recorded nothing"

echo "==> trace store smoke: bit-flip detection"
trace=(cargo run --release -q -p helios-bench --bin trace --)
entry=$(ls "$tstore"/*.htrc2 | head -1)
python3 - "$entry" <<'PY'
import sys
p = sys.argv[1]
b = bytearray(open(p, "rb").read())
b[len(b) // 2] ^= 0x40
open(p, "wb").write(b)
PY
set +e
"${trace[@]}" verify --store "$tstore" > "$scratch/verify.out"
verify_rc=$?
set -e
if [ "$verify_rc" -eq 0 ]; then
    echo "ci: FAIL — trace verify missed a deliberately flipped block" >&2
    exit 1
fi
grep -q "BAD" "$scratch/verify.out" || {
    echo "ci: FAIL — trace verify exited non-zero but named no bad file" >&2
    exit 1
}
echo "trace verify: flipped block detected (exit $verify_rc)"

# gc must reclaim the flipped file and record must refill the corpus, after
# which the store verifies clean and its summary is valid JSON.
"${trace[@]}" gc --store "$tstore" > /dev/null
"${trace[@]}" record --store "$tstore" > /dev/null 2> /dev/null
"${trace[@]}" verify --store "$tstore" > /dev/null || {
    echo "ci: FAIL — trace store does not verify clean after gc + record" >&2
    exit 1
}
"${trace[@]}" info --store "$tstore" --json | python3 -m json.tool > /dev/null
echo "trace gc + record: store verifies clean"

echo "==> Konata trace smoke"
"${trace[@]}" dump crc32 --konata "$scratch/crc32.kanata" --limit 20000
head -c 7 "$scratch/crc32.kanata" | grep -q "Kanata" || {
    echo "ci: FAIL — Konata trace missing header" >&2
    exit 1
}

echo "==> server smoke: sweepd + fig10 --quick --server"
# Start the daemon on an ephemeral port, run fig10 through it twice (cold
# cache simulates all 48 cells, warm cache must re-simulate zero), check
# stdout and the fig10.json artifact stay byte-identical to the local
# stable reference, then shut the daemon down with SIGINT (must exit 0).
cargo build --release -q -p helios-bench --bin serve
serve_log="$scratch/serve.log"
rm -rf "$scratch/sweepd"
target/release/serve --addr 127.0.0.1:0 --cache-dir "$scratch/sweepd" --jobs 2 \
    2> "$serve_log" &
serve_pid=$!
url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^sweepd: listening on //p' "$serve_log")
    [ -n "$url" ] && break
    sleep 0.1
done
[ -n "$url" ] || {
    echo "ci: FAIL — sweepd never announced its listening address" >&2
    exit 1
}
cp "$scratch/fig10.json" "$scratch/ref_fig10.json"
"${fig10[@]}" --server "$url" > "$scratch/server_cold.out" 2> "$scratch/server_cold.err"
"${fig10[@]}" --server "$url" > "$scratch/server_warm.out" 2> "$scratch/server_warm.err"
cmp "$scratch/ref.out" "$scratch/server_cold.out" || {
    echo "ci: FAIL — fig10 --server stdout differs from the local run" >&2
    exit 1
}
cmp "$scratch/ref.out" "$scratch/server_warm.out" || {
    echo "ci: FAIL — warm-cache fig10 --server stdout differs from the local run" >&2
    exit 1
}
cmp "$scratch/ref_fig10.json" "$scratch/fig10.json" || {
    echo "ci: FAIL — fig10 --server JSON artifact differs from the local run" >&2
    exit 1
}
grep -q "server cache: 0 hits, 48 simulated" "$scratch/server_cold.err" || {
    echo "ci: FAIL — cold server run did not report 48 simulated cells:" >&2
    grep "server cache:" "$scratch/server_cold.err" >&2 || true
    exit 1
}
grep -q "server cache: 48 hits, 0 simulated" "$scratch/server_warm.err" || {
    echo "ci: FAIL — warm server run re-simulated cells (want pure cache hits):" >&2
    grep "server cache:" "$scratch/server_warm.err" >&2 || true
    exit 1
}
kill -INT "$serve_pid"
set +e
wait "$serve_pid"
serve_rc=$?
set -e
if [ "$serve_rc" -ne 0 ]; then
    echo "ci: FAIL — sweepd exited $serve_rc on SIGINT, expected clean 0" >&2
    exit 1
fi
grep -q "shut down cleanly" "$serve_log" || {
    echo "ci: FAIL — sweepd exited 0 but never logged a clean shutdown" >&2
    exit 1
}
echo "server smoke: cold 48 simulated, warm 48 cached, stdout+artifact byte-identical, clean shutdown"

echo "==> benchmark smoke: perfbench --tiny run of every workload"
# The benchmark of record (BENCHMARK.json) links the library; its own tests
# run a tiny pass of sweep-warm, trace-cold and serve-warm through the real
# binary, so an API change that breaks the benchmark fails here.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "ci: all green"
