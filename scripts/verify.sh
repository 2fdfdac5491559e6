#!/usr/bin/env sh
# Hermetic verification: offline release build, full test suite, the
# golden `repro` output, a smoke-mode bench run into a throwaway report
# under target/, and CLI/service smokes. The committed BENCH_results.json
# is only read (its trace baselines back the `trace diff` smokes); no
# step rewrites a tracked file.
#
# No network, no external crates — the workspace is std-only.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$ROOT"
# The smoke bench's report: fresh each run, so every floor below reads
# this run's numbers.
BENCH_OUT="$ROOT/target/verify_bench.json"

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline --workspace -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
# A deleted or private item must not leave a dangling intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> cargo test -q --offline -- --test-threads=1 (catches order dependence)"
cargo test -q --offline --workspace -- --test-threads=1

echo "==> cargo test -q --offline -- --test-threads=8 (catches shared state between tests)"
# The harness defaults to one test thread per core. On a 2-core machine
# that default hid a race between tests on the old process-global trace
# recorder; 8 threads (the default on an 8-core machine) exposed it.
cargo test -q --offline --workspace -- --test-threads=8

echo "==> examples smoke: every example must exit 0"
# scrape_metrics needs a live server; the serve smoke below runs it.
for EXAMPLE in examples/*.rs; do
    NAME=$(basename "$EXAMPLE" .rs)
    [ "$NAME" = scrape_metrics ] && continue
    echo "    $NAME"
    cargo run -q --release --offline --example "$NAME" > /tmp/vpp_example.out 2>&1 || {
        cat /tmp/vpp_example.out >&2
        echo "verify: FAIL — example $NAME exited non-zero" >&2
        exit 1
    }
done

echo "==> golden repro: full stdout must equal repro_reference_output.txt"
# stdout carries no wall-clock lines (those go to stderr) and is
# byte-stable from run to run; an intended output change re-blesses the
# file and says so in CHANGES.md.
./target/release/repro > "$ROOT/target/verify_repro.out" 2>/dev/null || {
    echo "verify: FAIL — repro exited non-zero" >&2
    exit 1
}
diff -u "$ROOT/repro_reference_output.txt" "$ROOT/target/verify_repro.out" >&2 || {
    echo "verify: FAIL — repro stdout differs from repro_reference_output.txt" >&2
    exit 1
}

echo "==> trace smoke (vpp trace B.hR105_hse --quick)"
cargo run -q --release --offline --bin vpp -- trace B.hR105_hse --quick

echo "==> JSON round-trip property (256 cases)"
VPP_PROP_CASES=256 cargo test -q --offline -p vpp-substrate --test json_roundtrip

echo "==> smoke bench (VPP_BENCH_SMOKE=1) -> target/verify_bench.json"
rm -f "$BENCH_OUT"
VPP_BENCH_SMOKE=1 VPP_BENCH_OUT="$BENCH_OUT" \
    cargo bench -q --offline -p vpp-bench

echo "==> smoke bench comparisons:"
grep -A4 -E '"name": "(.*_before_after|des_.*)"' "$BENCH_OUT" \
    | grep -E '"name"|"speedup"|"drift"' || true

echo "==> Harness::compare drift bound (worse first/second-half shift of either leg)"
MAX_DRIFT=$(sed -n 's/.*"drift": \([0-9.eE+-]*\).*/\1/p' "$BENCH_OUT" \
    | sort -g | tail -n 1)
if [ -n "$MAX_DRIFT" ]; then
    awk -v d="$MAX_DRIFT" 'BEGIN {
        printf "    max drift across comparisons: +/-%.1f%%\n", d * 100
        printf "    (speedups above are only as trustworthy as this is small)\n"
    }'
    awk -v d="$MAX_DRIFT" 'BEGIN { exit !(d <= 0.25) }' || \
        echo "    WARNING: host drifted more than +/-25% mid-bench; re-run on a quieter machine before trusting speedups"
else
    echo "verify: FAIL — no comparison in the smoke bench report carries a drift bound" >&2
    exit 1
fi

echo "==> DES acceptance: calendar queue >= 3x heap at 1e6 pending (measured ~8x; floor guards regressions through CI noise)"
DES_SPEEDUP=$(grep -A4 '"name": "des_throughput_1e6"' "$BENCH_OUT" \
    | sed -n 's/.*"speedup": \([0-9.eE+-]*\).*/\1/p' | head -n 1)
[ -n "$DES_SPEEDUP" ] || {
    echo "verify: FAIL — des_throughput_1e6 comparison missing from the smoke bench report" >&2
    exit 1
}
awk -v s="$DES_SPEEDUP" 'BEGIN { exit !(s >= 3.0) }' || {
    echo "verify: FAIL — des_throughput_1e6 speedup $DES_SPEEDUP below the 3x floor" >&2
    exit 1
}
echo "    des_throughput_1e6 speedup: ${DES_SPEEDUP}x"

echo "==> serve floor: one kept-alive GET /healthz round trip <= 5 ms (measured ~0.04 ms; ~44 ms when a reply waits on Nagle + delayed ACK)"
SERVE_RTT_NS=$(grep -A1 '"name": "serve_keepalive_healthz"' "$BENCH_OUT" \
    | sed -n 's/.*"median_ns": \([0-9.eE+-]*\).*/\1/p' | head -n 1)
[ -n "$SERVE_RTT_NS" ] || {
    echo "verify: FAIL — serve_keepalive_healthz entry missing from the smoke bench report" >&2
    exit 1
}
awk -v n="$SERVE_RTT_NS" 'BEGIN { exit !(n <= 5e6) }' || {
    echo "verify: FAIL — serve_keepalive_healthz median ${SERVE_RTT_NS} ns above the 5 ms floor" >&2
    exit 1
}
echo "    serve_keepalive_healthz median: ${SERVE_RTT_NS} ns"

echo "==> campaign smoke (vpp campaign --jobs 2000 --seed 7; must finish inside 60 s)"
CAMPAIGN_T0=$(date +%s)
cargo run -q --release --offline --bin vpp -- campaign --jobs 2000 --seed 7 \
    > /tmp/vpp_campaign.out
CAMPAIGN_T1=$(date +%s)
grep -q '^sweet_spot' /tmp/vpp_campaign.out || {
    echo "verify: FAIL — campaign table is missing the sweet_spot policy row" >&2
    exit 1
}
[ $((CAMPAIGN_T1 - CAMPAIGN_T0)) -le 60 ] || {
    echo "verify: FAIL — 2000-job campaign took $((CAMPAIGN_T1 - CAMPAIGN_T0)) s (> 60 s budget)" >&2
    exit 1
}

echo "==> site-budget smoke (vpp campaign --site-budget at 60% of the summed envelope)"
# 4 partitions x 40 kW = 160 kW summed; 96 kW forces contention and
# global backfill. The summary line proves no policy's peak ever
# exceeded the envelope (the ledger asserts this structurally too).
cargo run -q --release --offline --bin vpp -- campaign \
    --jobs 600 --seed 7 --partitions 4 --site-budget 96000 --policy tco \
    > /tmp/vpp_campaign_site.out
grep -q '^within budget : yes' /tmp/vpp_campaign_site.out || {
    echo "verify: FAIL — site-budget campaign peaked above its envelope" >&2
    exit 1
}
grep -q '^tco_aware' /tmp/vpp_campaign_site.out || {
    echo "verify: FAIL — --policy tco did not add the tco_aware row" >&2
    exit 1
}

echo "==> trace diff smoke: campaign re-run must match its committed baseline"
VPP_BENCH_OUT="$ROOT/BENCH_results.json" \
    cargo run -q --release --offline --bin vpp -- trace diff campaign

echo "==> trace diff smoke: unperturbed re-run must match its committed baseline"
VPP_BENCH_OUT="$ROOT/BENCH_results.json" \
    cargo run -q --release --offline --bin vpp -- trace diff Si256_hse

echo "==> trace diff smoke: fabricated regression must be caught (exit 1)"
if VPP_BENCH_OUT="$ROOT/BENCH_results.json" \
    cargo run -q --release --offline --bin vpp -- \
    trace diff Si256_hse --perturb scf_iter:1.6 > /tmp/vpp_diff_perturbed.out
then
    echo "verify: FAIL — perturbed trace diff did not exit 1" >&2
    exit 1
fi
grep -q "REGRESSION — phase.scf_iter" /tmp/vpp_diff_perturbed.out || {
    echo "verify: FAIL — diff did not name phase.scf_iter as the culprit" >&2
    exit 1
}

echo "==> serve smoke: live /metrics must expose protocol.coverage"
# One worker session and a one-deep queue so the backpressure smoke
# below can force a deterministic 429 with three POSTs.
cargo run -q --release --offline --bin vpp -- \
    serve B.hR105_hse --quick --metrics-port 0 --max-sessions 1 --max-queue 1 \
    > /tmp/vpp_serve.out 2>&1 &
SERVE_PID=$!
ADDR=
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|^serving on http://||p' /tmp/vpp_serve.out | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || {
    echo "verify: FAIL — vpp serve never printed its address" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}
SCRAPED=
for _ in $(seq 1 100); do
    # All scrapes ride one keep-alive connection: scrape_metrics fetches
    # every extra path over the socket of the first. The power histogram
    # fills as the executor runs, so it gates the retry loop too.
    if cargo run -q --release --offline --example scrape_metrics -- \
        "http://$ADDR/metrics" /metrics /healthz > /tmp/vpp_scrape.out 2>/dev/null \
        && grep -q '^vpp_protocol_coverage' /tmp/vpp_scrape.out \
        && grep -q '^vpp_power_watts_bucket' /tmp/vpp_scrape.out; then
        SCRAPED=1
        break
    fi
    sleep 0.2
done
[ -n "$SCRAPED" ] || {
    echo "verify: FAIL — /metrics never exposed vpp_protocol_coverage + vpp_power_watts_bucket" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}
grep -q '^vpp_up 1' /tmp/vpp_scrape.out || {
    echo "verify: FAIL — /metrics lost the vpp_up self-series" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}
grep -q '^vpp_serve_jobs_evicted_total' /tmp/vpp_scrape.out || {
    echo "verify: FAIL — /metrics lost the vpp_serve_jobs_evicted_total counter" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}
grep -q '"jobs_queued"' /tmp/vpp_scrape.out || {
    echo "verify: FAIL — the keep-alive /healthz scrape went missing" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}
grep -q '^job service : POST /jobs' /tmp/vpp_serve.out || {
    echo "verify: FAIL — serve did not announce the POST /jobs service" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}

echo "==> backpressure smoke: a forced 429 leaves a structured warn in /logs"
# Three POSTs against one session + one queue slot: the first runs, the
# second queues, the third is refused. POSTs, the /logs fetch, and the
# metrics re-read all ride one keep-alive connection.
cargo run -q --release --offline --example scrape_metrics -- \
    "http://$ADDR/metrics" \
    'POST /jobs {"workload": "B.hR105_hse", "repeats": 16}' \
    'POST /jobs {"workload": "B.hR105_hse", "repeats": 16}' \
    'POST /jobs {"workload": "B.hR105_hse", "repeats": 16}' \
    '/logs?after=0&level=warn&limit=4096' > /tmp/vpp_429.out 2>/dev/null || {
    echo "verify: FAIL — backpressure scrape did not complete" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}
grep -q 'HTTP 429' /tmp/vpp_429.out || {
    echo "verify: FAIL — three POSTs against a full queue produced no 429" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}
grep -q 'queue full' /tmp/vpp_429.out || {
    echo "verify: FAIL — /logs?level=warn carries no queue-full warn record" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}

echo "==> vpp logs smoke: the CLI cursor client sees the same warn"
cargo run -q --release --offline --bin vpp -- logs "$ADDR" --level warn \
    > /tmp/vpp_logs_cli.out 2>/dev/null || {
    echo "verify: FAIL — vpp logs against the live service failed" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}
grep -q 'queue full' /tmp/vpp_logs_cli.out || {
    echo "verify: FAIL — vpp logs did not surface the queue-full warn" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}

kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

echo "verify: OK"
