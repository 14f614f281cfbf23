#!/bin/sh
# CTest smoke test for the CLI exit-code contract:
#   0 = success, 1 = user error, 2 = invalid option value.
# Usage: dpuc_smoke.sh <path-to-dpuc> [path-to-dse_sweep] \
#                      [path-to-dpulint] [path-to-serve_latency] \
#                      [path-to-run_benches] [path-to-micro_benchmarks]
# The optional second binary gets the DSE driver checks (strict
# --axes/--shards/--threads validation, journal + resume round); the
# optional third gets the verifier-CLI checks (clean program -> 0,
# corrupt file -> 1, bad flag -> 2); the optional fourth gets the
# serving-bench unknown-option checks (the removed QoS and fleet
# flags); the optional fifth gets the run_benches unknown-option
# check; the optional sixth gets the micro_benchmarks --threads
# checks.
set -u

DPUC="${1:?usage: dpuc_smoke.sh <path-to-dpuc> [path-to-dse_sweep] [path-to-dpulint] [path-to-serve_latency] [path-to-run_benches] [path-to-micro_benchmarks]}"
DSE="${2:-}"
DPULINT="${3:-}"
SERVE="${4:-}"
RUN_BENCHES="${5:-}"
MICRO="${6:-}"
TMP=$(mktemp -d) || exit 125
trap 'rm -rf "$TMP"' EXIT
fails=0

check() {
    expected="$1"
    desc="$2"
    shift 2
    "$@" >"$TMP/out" 2>"$TMP/err"
    got=$?
    if [ "$got" -ne "$expected" ]; then
        echo "FAIL: $desc: expected exit $expected, got $got"
        sed 's/^/  stderr: /' "$TMP/err"
        fails=$((fails + 1))
    else
        echo "ok: $desc (exit $got)"
    fi
}

# A tiny valid DAG: out = (a + b) * (a + b).
cat > "$TMP/tiny.dag" <<EOF
dpu-dag v1 4
i
i
+ 0 1
* 2 2
EOF

# Successes (exit 0).
check 0 "compile" "$DPUC" "$TMP/tiny.dag"
check 0 "--disasm" "$DPUC" "$TMP/tiny.dag" --disasm
check 0 "--simulate" "$DPUC" "$TMP/tiny.dag" --simulate
check 0 "--optimize --simulate" \
    "$DPUC" "$TMP/tiny.dag" --optimize --simulate
check 0 "--out + --dot" \
    "$DPUC" "$TMP/tiny.dag" --out="$TMP/tiny.bin" --dot="$TMP/tiny.dot"
check 0 "--partition + --threads" \
    "$DPUC" "$TMP/tiny.dag" --partition=1 --threads=4 --simulate
check 0 "pipelined multi-partition compile" \
    "$DPUC" "$TMP/tiny.dag" --partition=1 --threads=3 --verify \
    --simulate
[ -s "$TMP/tiny.bin" ] || {
    echo "FAIL: --out wrote no binary image"
    fails=$((fails + 1))
}

# Static verification: --verify runs the compiler/verify.hh pass on
# every pipeline stage; --prog= writes the self-contained program
# image dpulint consumes.
check 0 "--verify" "$DPUC" "$TMP/tiny.dag" --verify
check 0 "--verify --simulate --partition" \
    "$DPUC" "$TMP/tiny.dag" --verify --simulate --partition=1
check 0 "--prog image" \
    "$DPUC" "$TMP/tiny.dag" --verify --prog="$TMP/tiny.dpuprog"
[ -s "$TMP/tiny.dpuprog" ] || {
    echo "FAIL: --prog wrote no program image"
    fails=$((fails + 1))
}

# Real-matrix ingestion: --matrix compiles the SpTRSV DAG lowered
# from a Matrix Market file instead of reading a .dag file.
cat > "$TMP/tiny.mtx" <<EOF
%%MatrixMarket matrix coordinate real general
% 3x3 lower bidiagonal chain

3 3 5
1 1 2.0
2 1 -1.0
2 2 2.0
3 2 -1.0
3 3 2.0
EOF
check 0 "--matrix compile" "$DPUC" --matrix="$TMP/tiny.mtx"
check 0 "--matrix --simulate" \
    "$DPUC" --matrix="$TMP/tiny.mtx" --simulate
check 0 "--matrix --verify --disasm" \
    "$DPUC" --matrix="$TMP/tiny.mtx" --verify --disasm

# User errors (exit 1).
check 1 "bad flag" "$DPUC" "$TMP/tiny.dag" --no-such-flag
check 1 "no input file" "$DPUC"
check 1 "missing dag file" "$DPUC" "$TMP/does-not-exist.dag"
check 1 "two input files" "$DPUC" "$TMP/tiny.dag" "$TMP/tiny.dag"

# Malformed DAG file: a user error, not an internal crash.
printf 'not a dag\n' > "$TMP/bad.dag"
check 1 "malformed dag" "$DPUC" "$TMP/bad.dag"

# --matrix input-selection contract: exactly one of <dag> / --matrix,
# the file must exist and parse, and an empty value is an invalid
# option value (exit 2) like every other typed flag.
check 1 "both dag and --matrix" \
    "$DPUC" "$TMP/tiny.dag" --matrix="$TMP/tiny.mtx"
check 1 "missing matrix file" \
    "$DPUC" --matrix="$TMP/does-not-exist.mtx"
printf 'not a matrix\n' > "$TMP/bad.mtx"
check 1 "malformed matrix" "$DPUC" --matrix="$TMP/bad.mtx"
check 2 "--matrix= empty value" "$DPUC" --matrix=

# Invalid option values (exit 2): atoi used to turn these into 0 and
# silently clamp or misconfigure.
check 2 "--threads=0" "$DPUC" "$TMP/tiny.dag" --threads=0
check 2 "--threads non-numeric" "$DPUC" "$TMP/tiny.dag" --threads=abc
check 2 "--threads trailing junk" "$DPUC" "$TMP/tiny.dag" --threads=4x
check 2 "--depth non-numeric" "$DPUC" "$TMP/tiny.dag" --depth=deep
check 2 "--seed negative" "$DPUC" "$TMP/tiny.dag" --seed=-1
check 2 "--window=0" "$DPUC" "$TMP/tiny.dag" --window=0
check 2 "--window non-numeric" "$DPUC" "$TMP/tiny.dag" --window=wide
check 2 "--window trailing junk" "$DPUC" "$TMP/tiny.dag" --window=8x

# Impossible configurations are fatal user errors (exit 1), not
# crashes: bank conflict masks are 64-bit, so banks > 64 is rejected
# by the config check before any compile state is built.
check 1 "--banks=128 rejected" "$DPUC" "$TMP/tiny.dag" --banks=128

# dse_sweep: strict --axes/--shards/--threads validation (exit 2 on
# junk values, before any compile starts), --resume preconditions
# (exit 1), and a real --quick single-point sweep with a journal +
# resume round (both exit 0, journal non-empty).
if [ -n "$DSE" ]; then
    AXES='depth=1;banks=8;regs=16'
    check 0 "dse_sweep --quick sweep + journal" \
        "$DSE" --quick --axes="$AXES" --threads=2 --shards=2 \
        --journal="$TMP/dse.jsonl"
    [ -s "$TMP/dse.jsonl" ] || {
        echo "FAIL: dse_sweep wrote no journal"
        fails=$((fails + 1))
    }
    check 0 "dse_sweep --resume reuses the journal" \
        "$DSE" --quick --axes="$AXES" --journal="$TMP/dse.jsonl" \
        --resume

    check 2 "dse_sweep unknown axis name" \
        "$DSE" --quick --axes='bogus=1'
    check 2 "dse_sweep empty axis list" \
        "$DSE" --quick --axes='depth='
    check 2 "dse_sweep non-numeric axis value" \
        "$DSE" --quick --axes='depth=abc'
    check 2 "dse_sweep trailing comma in axis list" \
        "$DSE" --quick --axes='depth=1,'
    check 2 "dse_sweep non-power-of-two banks" \
        "$DSE" --quick --axes='banks=12'
    check 2 "dse_sweep depth out of range" \
        "$DSE" --quick --axes='depth=9'
    check 2 "dse_sweep repeated axis value" \
        "$DSE" --quick --axes='depth=1;banks=8;regs=16,16'
    check 2 "dse_sweep --shards=0" "$DSE" --quick --shards=0
    check 2 "dse_sweep --shards non-numeric" \
        "$DSE" --quick --shards=many
    check 2 "dse_sweep --threads=0" "$DSE" --quick --threads=0
    check 2 "dse_sweep --scale junk" "$DSE" --quick --scale=big

    # The sweep is the paper's D x B x R grid at one workload scale on
    # one core: the old scale and core-count axes are unknown axis
    # names, and --scale sets the one scale.
    check 2 "dse_sweep cores axis is unknown" \
        "$DSE" --quick --axes='cores=1'
    check 2 "dse_sweep scale axis is unknown" \
        "$DSE" --quick --axes='scale=0.1'
    check 2 "dse_sweep scales axis is unknown" \
        "$DSE" --quick --axes='scales=0.1'
    check 0 "dse_sweep --scale sets the sweep's scale" \
        "$DSE" --quick --axes="$AXES" --scale=0.1

    # Every point is simulated: the old evaluation-tier flags are
    # unknown options (exit 1), so a script still passing them fails
    # loudly instead of being silently ignored.
    check 1 "dse_sweep --fidelity=cycle is unknown" \
        "$DSE" --quick --axes="$AXES" --fidelity=cycle
    check 1 "dse_sweep --refine is unknown" \
        "$DSE" --quick --axes="$AXES" --refine
    check 1 "dse_sweep --table is unknown" \
        "$DSE" --quick --axes="$AXES" --table=x

    # A design point is one processor with no host link: fleet flags
    # are unknown options, so a script passing them fails loudly.
    check 1 "dse_sweep fleet flags are unknown" \
        "$DSE" --quick --axes="$AXES" --ranks=2 --xfer-gbps=4 \
        --placement=affinity

    check 1 "dse_sweep --resume without --journal" \
        "$DSE" --quick --resume
    printf 'not a journal\n' > "$TMP/notes.txt"
    check 1 "dse_sweep --resume refuses a non-journal file" \
        "$DSE" --quick --axes="$AXES" --journal="$TMP/notes.txt" \
        --resume
    grep -q 'not a journal' "$TMP/notes.txt" || {
        echo "FAIL: dse_sweep overwrote a non-journal file"
        fails=$((fails + 1))
    }
    check 1 "dse_sweep journal from a different sweep" \
        "$DSE" --quick --axes='depth=1;banks=16;regs=16' \
        --journal="$TMP/dse.jsonl" --resume
    check 1 "dse_sweep unknown flag" "$DSE" --no-such-flag

    # Static verification of every point compile: a quick verified
    # sweep must succeed end to end.
    check 0 "dse_sweep --verify quick sweep" \
        "$DSE" --quick --axes="$AXES" --verify
fi

# dpulint: the verifier CLI's documented exit-code contract
# (0 = every program clean, 1 = diagnostics or unreadable/corrupt
# input, 2 = usage error).
if [ -n "$DPULINT" ]; then
    "$DPUC" "$TMP/tiny.dag" --prog="$TMP/lint.dpuprog" \
        >/dev/null 2>&1
    check 0 "dpulint clean program" "$DPULINT" "$TMP/lint.dpuprog"
    check 0 "dpulint --disasm" \
        "$DPULINT" --disasm "$TMP/lint.dpuprog"

    head -c 40 "$TMP/lint.dpuprog" > "$TMP/trunc.dpuprog"
    check 1 "dpulint truncated image" "$DPULINT" "$TMP/trunc.dpuprog"
    printf 'garbage' > "$TMP/garbage.dpuprog"
    check 1 "dpulint corrupt image" "$DPULINT" "$TMP/garbage.dpuprog"
    check 1 "dpulint missing file" \
        "$DPULINT" "$TMP/does-not-exist.dpuprog"
    check 1 "dpulint one bad among good" \
        "$DPULINT" "$TMP/lint.dpuprog" "$TMP/trunc.dpuprog"

    check 2 "dpulint no input files" "$DPULINT"
    check 2 "dpulint unknown flag" "$DPULINT" --no-such-flag
    check 2 "dpulint bad --max-diags" \
        "$DPULINT" --max-diags=lots "$TMP/lint.dpuprog"
fi

# Serving bench: the server keeps one FIFO queue per program, with no
# priorities or deadlines, and the bench sets no queue bound, so the
# removed QoS flags are unknown options (exit 1), never silently
# ignored. They are refused at flag parse time, before any workload
# is compiled, so these checks are instant.
if [ -n "$SERVE" ]; then
    check 1 "serve --priority-mix is unknown" \
        "$SERVE" --quick --priority-mix=0.5
    check 1 "serve --deadline-us is unknown" \
        "$SERVE" --quick --deadline-us=20000
    check 1 "serve --queue-depth is unknown" \
        "$SERVE" --quick --queue-depth=256
    check 1 "serve --fidelity=cycle is unknown" \
        "$SERVE" --quick --fidelity=cycle
    check 1 "serve unknown flag still exit 1" \
        "$SERVE" --quick --no-such-flag

    # The server models one machine with no host link: fleet flags
    # are unknown options, never silently ignored.
    check 1 "serve fleet flags are unknown" \
        "$SERVE" --quick --ranks=2 --xfer-gbps=4 --placement=affinity
fi

# run_benches refuses an unknown option with 125 before it runs any
# bench, fleet flags included.
if [ -n "$RUN_BENCHES" ]; then
    check 125 "run_benches fleet flags are unknown" \
        "$RUN_BENCHES" --quick --ranks=2 --xfer-gbps=4 \
        --placement=affinity --outdir="$TMP/benches"
fi

if [ -n "$MICRO" ]; then
    # --benchmark_list_tests parses every flag but runs nothing.
    check 0 "micro --threads=2" \
        "$MICRO" --quick --threads=2 --benchmark_list_tests=true
    check 2 "micro --threads=0" "$MICRO" --quick --threads=0
    check 2 "micro --threads non-numeric" "$MICRO" --quick --threads=abc
    check 2 "micro --threads trailing junk" "$MICRO" --quick --threads=2x
    check 2 "micro --threads empty" "$MICRO" --quick --threads=
fi

if [ "$fails" -ne 0 ]; then
    echo "dpuc_smoke: $fails check(s) failed"
    exit 1
fi
echo "dpuc_smoke: all checks passed"
exit 0
