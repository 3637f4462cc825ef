#!/bin/sh
# ingest_smoke.sh — end-to-end smoke test of the incremental write path:
# build the binaries, boot ntga-serve on a generated dataset, prime the
# result cache with an affected and an unaffected query, POST a delta batch
# through ntga-run -server -ingest, verify the unaffected entry survives (cache hit, zero
# MR cycles) while the affected query re-executes and sees the delta rows,
# then fold the chain with delta-merge compaction and verify the servable
# content is unchanged. Exits non-zero on any failed step.
set -eu

ADDR="${INGEST_SMOKE_ADDR:-127.0.0.1:7459}"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/ntga-serve" ./cmd/ntga-serve
go build -o "$WORK/ntga-run" ./cmd/ntga-run
go build -o "$WORK/ntga-datagen" ./cmd/ntga-datagen

echo "== dataset"
"$WORK/ntga-datagen" -dataset lifesci -scale 1 -seed 42 -out "$WORK/bio.nt"

echo "== boot daemon on $ADDR"
"$WORK/ntga-serve" -data "$WORK/bio.nt" -addr "$ADDR" 2>"$WORK/serve.log" &
SERVE_PID=$!

echo "== wait for /healthz"
i=0
until "$WORK/ntga-run" -health "$ADDR" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "daemon never became healthy; log:" >&2
        cat "$WORK/serve.log" >&2
        exit 1
    fi
    kill -0 "$SERVE_PID" 2>/dev/null || {
        echo "daemon died; log:" >&2
        cat "$WORK/serve.log" >&2
        exit 1
    }
    sleep 0.2
done

# The delta touches bio:label, so the label query must be evicted while the
# organism query (no shared property) survives ingestion untouched.
AFFECTED='{"query":"PREFIX bio: <http://bio2rdf.example.org/> SELECT * WHERE { ?g bio:label ?l . }"}'
UNAFFECTED='{"query":"PREFIX bio: <http://bio2rdf.example.org/> SELECT * WHERE { ?g bio:organism ?o . }"}'

echo "== prime the result cache"
curl -sf -X POST "http://$ADDR/query" -d "$AFFECTED" >/dev/null
curl -sf -X POST "http://$ADDR/query" -d "$UNAFFECTED" >/dev/null

echo "== ingest a delta batch"
cat >"$WORK/delta.nt" <<'EOF'
<http://bio2rdf.example.org/smokegene> <http://bio2rdf.example.org/label> "smoke gene" .
<http://bio2rdf.example.org/smokegene> <http://bio2rdf.example.org/type> <http://bio2rdf.example.org/Gene> .
EOF
"$WORK/ntga-run" -server "$ADDR" -ingest "$WORK/delta.nt"

METRICS="$(curl -sf "http://$ADDR/metrics")"
echo "$METRICS" | grep -q '"ingests": *1' || {
    echo "metrics did not record the ingest: $METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '"delta_blocks": *1' || {
    echo "ingest did not leave one delta block: $METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '"cache_retained": *[1-9]' || {
    echo "no cache entry survived the ingest: $METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '"cache_evicted": *[1-9]' || {
    echo "no affected cache entry was evicted: $METRICS" >&2
    exit 1
}

echo "== unaffected query survives as a cache hit"
HIT="$(curl -sf -X POST "http://$ADDR/query" -d "$UNAFFECTED")"
echo "$HIT" | grep -q '"cache": *"hit"' || {
    echo "unaffected query was not served from cache: $HIT" >&2
    exit 1
}
echo "$HIT" | grep -q '"cycles": *0,' || {
    echo "unaffected cache hit reported MR cycles: $HIT" >&2
    exit 1
}

echo "== affected query re-executes and sees the delta"
MISS="$(curl -sf -X POST "http://$ADDR/query" -d "$AFFECTED")"
echo "$MISS" | grep -q '"cache": *"miss"' || {
    echo "affected query was not evicted: $MISS" >&2
    exit 1
}
echo "$MISS" | grep -q 'smoke gene' || {
    echo "affected query does not see the ingested triple: $MISS" >&2
    exit 1
}

echo "== compact the delta chain"
"$WORK/ntga-run" -server "$ADDR" -compact
METRICS="$(curl -sf "http://$ADDR/metrics")"
echo "$METRICS" | grep -q '"compactions": *1' || {
    echo "metrics did not record the compaction: $METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '"delta_blocks": *0' || {
    echo "compaction did not drain the delta chain: $METRICS" >&2
    exit 1
}

echo "== compacted base still serves the delta rows"
AFTER="$(curl -sf -X POST "http://$ADDR/query" -d "$AFFECTED")"
echo "$AFTER" | grep -q 'smoke gene' || {
    echo "compacted base lost the ingested triple: $AFTER" >&2
    exit 1
}

echo "ingest-smoke: OK"
