#!/usr/bin/env sh
# Tier-1 gate: everything a PR must keep green.
#   build + full test suite + clippy (deny warnings) + a --jobs smoke run.
# Usage: scripts/tier1.sh   (from the repo root)
# Opt-in: BENCH_REGRESS=1 additionally runs scripts/bench_regress.sh
# (off by default — shared-container wall clock is too noisy to block
# every commit on it).
set -eu

echo "== build (release) =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace -q

echo "== kernels tests, forced-scalar tier (KERNELS_FORCE_SCALAR=1) =="
# The workspace run above exercises auto ISA dispatch (whatever the host
# exposes: AES-NI, SHA-NI, AVX2, ...). This second run pins every kernel
# to its scalar reference path through the same public entry points, so
# both dispatch tiers — and the env-var plumbing itself — stay covered
# by the same equivalence suite.
KERNELS_FORCE_SCALAR=1 cargo test -q -p accelerometer-kernels

echo "== clippy (deny warnings, release) =="
# Release profile so lint analysis sees the same cfg/codegen surface the
# perf-sensitive release builds use (and shares the build cache with the
# release build above).
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== --jobs smoke: tables table6 at widths 1 and 2 must match byte-for-byte =="
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
./target/release/accelctl --jobs 1 tables table6 > "$out_dir/j1.txt"
./target/release/accelctl --jobs 2 tables table6 > "$out_dir/j2.txt"
cmp "$out_dir/j1.txt" "$out_dir/j2.txt"

echo "== faults smoke: accelctl faults at widths 1 and 2 must match the committed fixture =="
./target/release/accelctl --jobs 1 faults > "$out_dir/faults_j1.json"
./target/release/accelctl --jobs 2 faults > "$out_dir/faults_j2.json"
cmp "$out_dir/faults_j1.json" "$out_dir/faults_j2.json"
# The binary appends a trailing newline to the report; the fixture
# stores the bare JSON string.
printf '\n' | cat crates/cli/tests/fixtures/golden_faults.json - > "$out_dir/faults_expected.json"
cmp "$out_dir/faults_expected.json" "$out_dir/faults_j1.json"

echo "== shards smoke: accelctl --shards 1 and 4 must match the committed sharded fixture =="
# The shard decomposition is derived from the configuration, so the
# worker width can only change wall-clock time, never a byte of output.
./target/release/accelctl --shards 1 faults > "$out_dir/faults_s1.json"
./target/release/accelctl --shards 4 faults > "$out_dir/faults_s4.json"
cmp "$out_dir/faults_s1.json" "$out_dir/faults_s4.json"
printf '\n' | cat crates/cli/tests/fixtures/golden_faults_sharded.json - > "$out_dir/faults_sharded_expected.json"
cmp "$out_dir/faults_sharded_expected.json" "$out_dir/faults_s1.json"

echo "== heavy-fallback smoke: fallback slices must conserve core capacity at any shard width =="
# configs/faults-heavy-fallback.json drives 60% of offload attempts into
# the fault path with a one-retry + fallback-to-host policy: over a
# third of all kernels re-execute on the host. Those re-executions are
# real scheduled slices, so (a) core_utilization must stay <= 1 for
# every policy — the old phantom accounting pushed it past 1 — and
# (b) the report must be byte-identical whether the simulation runs
# monolithically or sharded 4 ways.
./target/release/accelctl --shards 1 faults configs/faults-heavy-fallback.json > "$out_dir/faults_heavy_s1.json"
./target/release/accelctl --shards 4 faults configs/faults-heavy-fallback.json > "$out_dir/faults_heavy_s4.json"
cmp "$out_dir/faults_heavy_s1.json" "$out_dir/faults_heavy_s4.json"
grep '"fallbacks"' "$out_dir/faults_heavy_s1.json" | awk -F': ' \
    '{ gsub(/,/, "", $2); total += $2 } END { if (total < 1000) { print "heavy-fallback smoke: expected >= 1000 fallbacks, got " total; exit 1 } }'
grep '"core_utilization"' "$out_dir/faults_heavy_s1.json" | awk -F': ' \
    '{ gsub(/,/, "", $2); if ($2 + 0.0 > 1.0) { print "core_utilization " $2 " exceeds 1.0"; exit 1 } }'

echo "== bad-input smoke: malformed scenarios, flags and service packs must exit 1 with a structured error =="
# Each crates/cli/tests/fixtures/bad_scenario_*.json breaks one workload,
# size or policy field of the heavy-fallback scenario: a negative or
# infinite cost, a negative CDF breakpoint, an absurd kernel, thread or
# device-server count, zero servers, or an unbounded retry budget.
# These used to exit 0 with negative or empty results, panic (101), die
# on an out-of-memory kill (137) or a capacity-overflow abort (134), or
# run without end. Any exit code but 1, or a panic message, fails the
# smoke.
for scenario in crates/cli/tests/fixtures/bad_scenario_*.json; do
    rc=0
    ./target/release/accelctl faults "$scenario" > /dev/null 2> "$out_dir/bad_input.err" || rc=$?
    if [ "$rc" -ne 1 ] || grep -q 'panicked' "$out_dir/bad_input.err"; then
        echo "bad-input smoke: $scenario exited $rc (expected 1)"
        cat "$out_dir/bad_input.err"
        exit 1
    fi
done
# Flags and service data the CLI cannot run: integer flags that used to
# saturate through a float cast (a 160 GB allocation, a capacity
# overflow), non-finite sweep bounds and break-even parameters, sweep
# grids with values the model rejects or f64 cannot hold (the sweep used
# to drop those rows and exit 0), a params file with no scenarios (bounds
# used to print nothing and exit 0), and a
# services pack whose case study the simulator does not know (it passes
# `services validate` but used to panic `validate` and `tables table6`),
# a params file whose `"a": 1e400` overflows to infinity, a value flag
# given last (it used to fall back silently to its default), the
# deleted ISA flag (the scalar tier is KERNELS_FORCE_SCALAR=1), flags
# no command knows (they used to be ignored, exiting 0, or read as the
# command's positional argument), a repeated flag (the first, or for
# global flags the last, used to win silently) and a positional past the
# command's arity (it used to be ignored, exiting 0).
mkdir "$out_dir/renamed"
printf '{"scenarios": []}' > "$out_dir/empty.json"
sed 's/"aes-ni"/"aes-ni-v2"/' configs/services/cache1.json > "$out_dir/renamed/cache1.json"
while IFS= read -r argv; do
    rc=0
    # Each line is one argv, split on spaces.
    # shellcheck disable=SC2086
    ./target/release/accelctl $argv > /dev/null 2> "$out_dir/bad_input.err" || rc=$?
    if [ "$rc" -ne 1 ] || grep -q 'panicked' "$out_dir/bad_input.err"; then
        echo "bad-input smoke: accelctl $argv exited $rc (expected 1)"
        cat "$out_dir/bad_input.err"
        exit 1
    fi
done <<ARGS
characterize web --samples 4000000000
characterize web --samples 18446744073709551615
characterize web --seed -1
validate --seed nan
sweep configs/table6.json --axis offloads --from 0 --to 1e308 --points 18446744073709551615
sweep configs/table6.json --axis offloads --from 1 --to nan
sweep configs/table6.json --axis peak-speedup --from 0.1 --to 2 --points 3
sweep configs/table6.json --axis offloads --from 1e-300 --to 1e300 --points 3
bounds $out_dir/empty.json
breakeven --cb nan --a 2
breakeven --cb -1 --a 2
breakeven --cb inf --a inf
breakeven --cb 5 --a 27 --l -1
--services $out_dir/renamed validate
--services $out_dir/renamed tables table6
estimate crates/cli/tests/fixtures/bad_params_overflow_a.json
characterize web --samples 100 --seed
breakeven --cb 5 --a 27 --design
--isa scalar faults
characterize web --samples 100 --sede 3
tables table1 --bogus
faults --sead 5
tables table1 table2
estimate configs/table6.json configs/table7-compression.json
characterize web --samples 100 --seed 1 --seed 2
--jobs 1 --jobs 2 help
help extra
project junk
calibrate foo
timeline sync sync-os
services list x
ARGS

echo "== closed-stdout smoke: a reader that exits before reading is not a panic =="
# accelctl used to panic (exit 101) on "failed printing to stdout: Broken
# pipe". The reader here exits without reading, long before accelctl
# has rendered the tables, so the write meets a closed pipe; `head -1`
# would take the whole output from the pipe buffer first and let the
# bug slip through.
./target/release/accelctl tables all 2> "$out_dir/closed_stdout.err" | true
if grep -q 'panicked' "$out_dir/closed_stdout.err"; then
    echo "closed-stdout smoke: accelctl panicked"
    cat "$out_dir/closed_stdout.err"
    exit 1
fi

echo "== memory smoke: characterize streams its samples in bounded memory =="
# characterize folds each sample into running sums (or, with --folded,
# into one entry per distinct stack) instead of storing every trace, so
# the --samples cap runs in a few MB. Storing the traces took ~1.4 GB
# and aborts under this 256 MB address-space limit; the subshell limits
# only the smoke's own processes.
for extra in "" "--folded"; do
    rc=0
    # shellcheck disable=SC2086
    (ulimit -v 262144 && ./target/release/accelctl characterize cache1 --samples 10000000 $extra) \
        > /dev/null 2> "$out_dir/memory_smoke.err" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "memory smoke: characterize cache1 --samples 10000000 $extra exited $rc under a 256 MB limit"
        cat "$out_dir/memory_smoke.err"
        exit 1
    fi
done

echo "== calibrate smoke: four kernel rows of finite, positive figures on both dispatch tiers =="
# calibrate prints timings, so no golden can pin it; its shape can be.
# Each tier must exit 0 with exactly four rows "<kernel> <c/B> <c/B>
# <factor>x" whose three figures are positive and finite (a NaN, inf or
# negative figure fails the digits-only pattern), and
# KERNELS_FORCE_SCALAR=1 must reach the dispatch layer: its ISA line
# reads "active scalar".
for tier in auto scalar; do
    rc=0
    if [ "$tier" = scalar ]; then
        KERNELS_FORCE_SCALAR=1 ./target/release/accelctl calibrate > "$out_dir/calibrate.txt" || rc=$?
        if ! head -1 "$out_dir/calibrate.txt" | grep -q '| active scalar$'; then
            echo "calibrate smoke: KERNELS_FORCE_SCALAR=1 did not pin the scalar tier"
            cat "$out_dir/calibrate.txt"
            exit 1
        fi
    else
        ./target/release/accelctl calibrate > "$out_dir/calibrate.txt" || rc=$?
    fi
    if [ "$rc" -ne 0 ]; then
        echo "calibrate smoke ($tier): exited $rc"
        exit 1
    fi
    awk -v tier="$tier" '
        $1 ~ /^(encryption|compression|hashing|inference)$/ {
            rows++
            factor = $4
            sub(/x$/, "", factor)
            for (i = 2; i <= 4; i++) {
                v = (i == 4) ? factor : $i
                if (v !~ /^[0-9]+(\.[0-9]+)?$/ || v + 0 <= 0) {
                    print "calibrate smoke (" tier "): bad figure " v " in: " $0
                    bad = 1
                }
            }
        }
        END { if (rows != 4) { print "calibrate smoke (" tier "): " rows " kernel rows, expected 4"; bad = 1 } exit bad }
    ' "$out_dir/calibrate.txt" || { cat "$out_dir/calibrate.txt"; exit 1; }
done

echo "== services gate: every shipped profile pack must parse and validate =="
# A malformed configs/services/*.json (breakdown off 100%, non-monotone
# CDF, negative IPC/rate, wrong filename) fails this command with a
# structured error and breaks the gate.
./target/release/accelctl services validate configs/services

echo "== services smoke: data-driven profiles must be byte-identical to the builtins =="
# The load-bearing equivalence of the data path: every runner driven
# through --services configs/services (files read at run time) must
# reproduce the builtin output (the same files, embedded at build time)
# byte-for-byte, including against the committed golden fixtures.
./target/release/accelctl --services configs/services faults > "$out_dir/faults_svc.json"
cmp "$out_dir/faults_expected.json" "$out_dir/faults_svc.json"
./target/release/accelctl --services configs/services --shards 2 faults > "$out_dir/faults_svc_sharded.json"
cmp "$out_dir/faults_sharded_expected.json" "$out_dir/faults_svc_sharded.json"
./target/release/accelctl tables all > "$out_dir/tables_builtin.txt"
./target/release/accelctl --services configs/services tables all > "$out_dir/tables_svc.txt"
cmp "$out_dir/tables_builtin.txt" "$out_dir/tables_svc.txt"
./target/release/accelctl --services configs/services tables table6 > "$out_dir/t6_svc.txt"
cmp "$out_dir/j1.txt" "$out_dir/t6_svc.txt"
# Every figure, one by one: figures used to read some datasets straight
# from Rust constructors and silently ignore --services.
for id in fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 \
    fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22; do
    ./target/release/accelctl figures "$id" > "$out_dir/fig_builtin.txt"
    ./target/release/accelctl --services configs/services figures "$id" > "$out_dir/fig_svc.txt"
    cmp "$out_dir/fig_builtin.txt" "$out_dir/fig_svc.txt"
done

if [ "${BENCH_REGRESS:-0}" = "1" ]; then
    echo "== bench regression gate (opt-in) =="
    sh scripts/bench_regress.sh
fi

echo "tier1: OK"
