#!/bin/sh
# Benchmark regression gate: re-runs the recorded benches and fails if
# any benchmark's mean — raw and/or 10%-trimmed, whichever the committed
# record keeps — regresses more than the tolerance versus the committed
# BENCH_*.json record. Records that also keep a paired `before` array
# first get a before/after speedup table printed from the record itself,
# so the ratios cited in CHANGES.md are reproducible from one command.
#
# Usage: scripts/bench_regress.sh
#
# Knobs:
#   BENCH_REGRESS_TOLERANCE_PCT  allowed mean regression (default 15)
#   CRITERION_BUDGET_MS          per-benchmark budget (default 400, the
#                                budget the committed records used)
#
# Opt-in from tier1: BENCH_REGRESS=1 scripts/tier1.sh — the gate stays
# off the default tier-1 path because wall-clock on a shared 1-core
# container is too noisy to block commits unconditionally.
set -eu

cd "$(dirname "$0")/.."

TOLERANCE_PCT="${BENCH_REGRESS_TOLERANCE_PCT:-15}"
export CRITERION_BUDGET_MS="${CRITERION_BUDGET_MS:-400}"

command -v jq >/dev/null 2>&1 || {
    echo "bench_regress: jq not found; cannot compare records" >&2
    exit 2
}

status=0
for record in BENCH_engine.json BENCH_parallel.json BENCH_kernels.json BENCH_pipeline.json; do
    [ -f "$record" ] || {
        echo "bench_regress: missing record $record" >&2
        status=1
        continue
    }
    bench_name=$(basename "$record" .json | sed 's/^BENCH_//')
    # Records that carry a paired `before` array (measured in the same
    # session as `results`, per-side medians of trimmed means) get their
    # recorded speedup ratios re-derived and printed here, so the claims
    # in CHANGES.md reproduce from this one command instead of living
    # only in the record's summary block.
    if jq -e '.before? | length > 0' "$record" >/dev/null 2>&1; then
        echo "== $bench_name: recorded paired before/after ratios =="
        { jq -r '.before[] | "BASE\t\(.id)\t\(.trimmed_mean_ns // .mean_ns)"' "$record"
          jq -r '.results[] | "CUR\t\(.id)\t\(.trimmed_mean_ns // .mean_ns)"' "$record"
        } | awk -F'\t' '
            $1 == "BASE" { base[$2] = $3; order[n++] = $2; next }
            $1 == "CUR" { cur[$2] = $3 }
            END {
                printf "%-52s %14s %14s %9s\n", "benchmark", "before_ns", "after_ns", "speedup"
                for (i = 0; i < n; i++) {
                    id = order[i]
                    if (!(id in cur)) { printf "%-52s %14.0f %14s %9s\n", id, base[id], "-", "-"; continue }
                    printf "%-52s %14.0f %14.0f %8.2fx\n", id, base[id], cur[id], base[id] / cur[id]
                }
            }'
    fi
    echo "== $bench_name: re-running (budget ${CRITERION_BUDGET_MS} ms, tolerance ${TOLERANCE_PCT}%) =="
    out=$(cargo bench -q -p accelerometer-bench --bench "$bench_name" 2>/dev/null | grep '^BENCHJSON ' | sed 's/^BENCHJSON //')
    if [ -z "$out" ]; then
        echo "bench_regress: bench $bench_name produced no BENCHJSON output" >&2
        status=1
        continue
    fi
    # ISA guard: a committed record measured with (say) AES-NI+AVX2 and
    # a fresh run forced scalar — or taken on a host without those
    # features — are measurements of different machines, not a
    # regression signal. Refuse to compare rather than emit a bogus
    # verdict. Records that predate the isa field ("unrecorded") are
    # compared as before.
    committed_isa=$(jq -r '.results[0].isa // .environment.isa // "unrecorded"' "$record")
    fresh_isa=$(printf '%s\n' "$out" | head -n 1 | jq -r '.isa // "unrecorded"')
    if [ "$committed_isa" != "unrecorded" ] && [ "$committed_isa" != "$fresh_isa" ]; then
        echo "bench_regress: $bench_name ISA mismatch — record taken with '$committed_isa', this run dispatches '$fresh_isa'" >&2
        echo "bench_regress: refusing to compare timings across instruction sets; re-record on this host or align KERNELS_FORCE_SCALAR" >&2
        status=1
        continue
    fi
    # Join committed and fresh results by id, then let awk render the
    # readable diff and flag regressions beyond tolerance. Each mean the
    # committed record keeps — raw, 10%-trimmed, or both — is gated
    # against the fresh run's counterpart: the trimmed mean is the
    # robust number on a noisy shared host; older records carried only
    # the raw mean, newer ones only the trimmed. "-" marks a side (or
    # column) without that mean.
    committed=$(jq -r '.results[] | "BASE\t\(.id)\t\(.mean_ns // "-")\t\(.trimmed_mean_ns // "-")"' "$record")
    fresh=$(printf '%s\n' "$out" | jq -r '"CUR\t\(.id)\t\(.mean_ns)\t\(.trimmed_mean_ns // "-")"')
    report=$(printf '%s\n%s\n' "$committed" "$fresh" | awk -F'\t' -v tol="$TOLERANCE_PCT" '
        $1 == "BASE" { base[$2] = $3; base_tr[$2] = $4; order[n++] = $2; next }
        $1 == "CUR" { cur[$2] = $3; cur_tr[$2] = $4 }
        END {
            fail = 0
            printf "%-52s %14s %14s %9s %10s\n", "benchmark", "recorded_ns", "current_ns", "delta", "trim_delta"
            for (i = 0; i < n; i++) {
                id = order[i]
                if (!(id in cur)) { printf "%-52s %14s %14s %9s %10s  MISSING\n", id, base[id], "-", "-", "-"; fail = 1; continue }
                flag = ""
                delta_col = "-"
                if (base[id] != "-") {
                    delta = (cur[id] / base[id] - 1) * 100
                    delta_col = sprintf("%+8.1f%%", delta)
                    if (delta > tol) { flag = "  REGRESSED"; fail = 1 }
                }
                trim_col = "-"
                if (base_tr[id] != "-" && cur_tr[id] != "-") {
                    trim_delta = (cur_tr[id] / base_tr[id] - 1) * 100
                    trim_col = sprintf("%+9.1f%%", trim_delta)
                    if (trim_delta > tol) { flag = "  REGRESSED(trimmed)"; fail = 1 }
                }
                printf "%-52s %14s %14.0f %9s %10s%s\n", id, base[id], cur[id], delta_col, trim_col, flag
            }
            exit fail
        }') || status=1
    printf '%s\n' "$report"
done

if [ "$status" -ne 0 ]; then
    echo "bench_regress: FAIL — at least one mean regressed > ${TOLERANCE_PCT}% (or a record/benchmark is missing)" >&2
    echo "If the regression is intentional, re-record with:" >&2
    echo "  CRITERION_BUDGET_MS=400 cargo bench -p accelerometer-bench --bench <name>  # then update BENCH_<name>.json" >&2
    exit 1
fi
echo "bench_regress: OK — no mean regressed more than ${TOLERANCE_PCT}%"
