#!/bin/sh
# uarch_smoke.sh — end-to-end smoke of the multi-core timing model.
#
# Exercises the whole chain: the golden-digest test holds every uarch
# Result, DRAM writeback count and LLC victim sequence to its recorded
# value at 1, 2, 4 and 8 cores, and `benchjson -uarch -quick` produces
# the scaling report, validating the emitted JSON:
#   - the report must carry instr_per_sec, per_core, wb_to_dram and
#     geomean_ipc;
#   - no field may be NaN.
set -eu

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

echo "uarch-smoke: golden digests (internal/uarch)..."
go test -count=1 -run Golden ./internal/uarch > "$dir/golden.out" 2>&1 || {
    echo "uarch-smoke: FAIL — the timing model moved off its golden digests" >&2
    cat "$dir/golden.out" >&2
    exit 1
}

echo "uarch-smoke: building benchjson..."
go build -o "$dir/benchjson" ./cmd/benchjson

echo "uarch-smoke: quick scaling benchmark..."
"$dir/benchjson" -uarch -quick -o "$dir/uarch.json" 2> /dev/null

echo "uarch-smoke: validating BENCH_uarch fields..."
for field in instr_per_sec per_core wb_to_dram geomean_ipc; do
    if ! grep -q "\"$field\"" "$dir/uarch.json"; then
        echo "uarch-smoke: FAIL — report has no $field field" >&2
        exit 1
    fi
done
if grep -q 'NaN' "$dir/uarch.json"; then
    echo "uarch-smoke: FAIL — report contains NaN" >&2
    exit 1
fi

echo "uarch-smoke: OK"
