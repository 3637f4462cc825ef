#!/bin/sh
# partition_layout_smoke.sh — end-to-end smoke test of the bucketed data
# layout: generate a dataset, run each query below once over the flat triple
# file and once with -partition-buckets (which builds the hash-of-subject
# layout, then takes the map-only plan), assert the partitioned workflow
# moved ZERO shuffle bytes, that EXPLAIN over the same layout estimates zero
# for it, and that the two runs' sorted row output is byte-identical. Exits
# non-zero on any failed step.
set -eu

WORK="$(mktemp -d)"
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT INT TERM

cd "$(dirname "$0")/.."

echo "== build"
go build -o "$WORK/ntga-run" ./cmd/ntga-run
go build -o "$WORK/ntga-datagen" ./cmd/ntga-datagen

echo "== dataset"
"$WORK/ntga-datagen" -dataset bsbm -scale 2 -seed 42 -out "$WORK/bsbm.nt"

# smoke NAME QUERY [COUNTER]: one flat and one partitioned run of QUERY,
# whose rows start at a header line beginning "?prod<TAB>". When COUNTER is
# given, the partitioned run must report it non-zero.
smoke() {
    name=$1 query=$2 counter=${3:-}
    echo "== $name: flat run (shuffle path)"
    "$WORK/ntga-run" -data "$WORK/bsbm.nt" -e "$query" -metrics >"$WORK/$name.flat.out" 2>"$WORK/$name.flat.err"

    echo "== $name: partitioned run (load layout, then map-only)"
    "$WORK/ntga-run" -data "$WORK/bsbm.nt" -e "$query" -partition-buckets 8 -metrics \
        >"$WORK/$name.part.out" 2>"$WORK/$name.part.err"

    grep -q "partition: built layout" "$WORK/$name.part.err" || {
        echo "FAIL: $name: partitioned run never built the layout; stderr:" >&2
        cat "$WORK/$name.part.err" >&2
        exit 1
    }

    # ntga-run prints rows on stdout and the metrics table on stderr; the
    # TOTAL row's 4th column is the workflow's shuffle bytes.
    flat_shuffle="$(awk '$1 == "TOTAL" { print $4 }' "$WORK/$name.flat.err")"
    part_shuffle="$(awk '$1 == "TOTAL" { print $4 }' "$WORK/$name.part.err")"
    echo "   flat shuffle: $flat_shuffle, partitioned shuffle: $part_shuffle"
    if [ "$flat_shuffle" = "0B" ] || [ -z "$flat_shuffle" ]; then
        echo "FAIL: $name: flat baseline moved no shuffle bytes ($flat_shuffle); the smoke test is vacuous" >&2
        exit 1
    fi
    if [ "$part_shuffle" != "0B" ]; then
        echo "FAIL: $name: partitioned run shuffled $part_shuffle, want 0B" >&2
        cat "$WORK/$name.part.out" >&2
        exit 1
    fi
    echo "== $name: EXPLAIN over the layout (estimate beside the measurement)"
    "$WORK/ntga-run" -explain -data "$WORK/bsbm.nt" -partition-buckets 8 -e "$query" >"$WORK/$name.explain.out"
    # The estimated-cost table's rows read engine, cycles, scans, shuffle(est).
    est_shuffle="$(sed -n '/^== estimated cost ==$/,/^$/p' "$WORK/$name.explain.out" | awk '$1 == "NTGA-Lazy" { print $4 }')"
    echo "   NTGA-Lazy estimated shuffle over the layout: $est_shuffle"
    if [ "$est_shuffle" != "0" ]; then
        echo "FAIL: $name: EXPLAIN estimates $est_shuffle shuffle bytes over the layout, the run moved 0B" >&2
        cat "$WORK/$name.explain.out" >&2
        exit 1
    fi
    if [ -n "$counter" ]; then
        n="$(awk -v c="$counter" '$1 == "counter" && $2 == c { print $4 }' "$WORK/$name.part.err")"
        echo "   partitioned $counter: ${n:-0}"
        if [ -z "$n" ] || [ "$n" = "0" ]; then
            echo "FAIL: $name: partitioned run reports no $counter" >&2
            cat "$WORK/$name.part.err" >&2
            exit 1
        fi
    fi

    echo "== $name: byte-diff sorted rows"
    # Strip the metrics preamble: rows start at the tab-separated header line.
    rows() { sed -n '/^?prod\t/,$p' "$1" | sort; }
    rows "$WORK/$name.flat.out" >"$WORK/$name.flat.rows"
    rows "$WORK/$name.part.out" >"$WORK/$name.part.rows"
    if [ ! -s "$WORK/$name.flat.rows" ]; then
        echo "FAIL: $name: no rows captured from the flat run" >&2
        exit 1
    fi
    if ! diff -u "$WORK/$name.flat.rows" "$WORK/$name.part.rows"; then
        echo "FAIL: $name: partitioned rows differ from flat rows" >&2
        exit 1
    fi
    echo "   $name: $(wc -l <"$WORK/$name.flat.rows") row lines byte-identical, shuffle $flat_shuffle -> 0B"
}

# Q1a's shape: two stars chained on an O-S join — the repeat-joined key is
# the subject hash the layout is bucketed on, so the whole chain is served
# map-side.
smoke Q1a 'PREFIX bsbm: <http://bsbm.example.org/>
SELECT * WHERE {
  ?prod bsbm:label ?l . ?prod bsbm:producer ?pr .
  ?pr bsbm:label ?prl . ?pr bsbm:country ?c .
}'

# B1's shape: the join runs through an unbound slot's object, so the
# grouping cycle routes each product's still-nested slot to the join's
# bucket files as a partial β-unnest, one record per bucket its candidates
# hash to.
smoke B1 'PREFIX bsbm: <http://bsbm.example.org/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT * WHERE {
  ?prod bsbm:label ?l . ?prod ?p ?x .
  ?x bsbm:label ?xl . ?x rdf:type bsbm:FeatureType .
}' ntga.join.partial_tgs

echo "partition-layout-smoke: OK (Q1a and B1 byte-identical flat and bucketed, 0B shuffled, 0 estimated)"
