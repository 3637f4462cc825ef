#!/bin/sh
# dist_smoke.sh — end-to-end smoke test of true distributed execution:
# build the binaries, generate a dataset, boot ntga-serve hosting the
# cluster master (-workers) and two ntga-worker processes, run a
# catalog-style query through ntga-run -server, kill -9 one worker while a
# second (stretched, uncached) query is mid flight, and assert both runs
# print output byte-identical to a local ntga-run with the daemon's
# -reducers and -split-records. Exits non-zero on any failed step.
set -eu

SERVE_ADDR="${DIST_SMOKE_SERVE_ADDR:-127.0.0.1:7458}"
WORKERS_ADDR="${DIST_SMOKE_WORKERS_ADDR:-127.0.0.1:7455}"
WORK="$(mktemp -d)"
SERVE_PID=""
W1_PID=""
W2_PID=""
cleanup() {
    for p in "$SERVE_PID" "$W1_PID" "$W2_PID"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/ntga-serve" ./cmd/ntga-serve
go build -o "$WORK/ntga-worker" ./cmd/ntga-worker
go build -o "$WORK/ntga-run" ./cmd/ntga-run
go build -o "$WORK/ntga-datagen" ./cmd/ntga-datagen

echo "== dataset"
"$WORK/ntga-datagen" -dataset lifesci -scale 2 -seed 42 -out "$WORK/bio.nt"

echo "== boot ntga-serve on $SERVE_ADDR hosting the master (-workers $WORKERS_ADDR) + 2 workers"
# A leftover daemon on the port would answer our readiness probes and
# wreck every assertion below; insist on a fresh one.
if "$WORK/ntga-run" -health "$SERVE_ADDR" >/dev/null 2>&1; then
    echo "something already answers on $SERVE_ADDR; kill it or set DIST_SMOKE_SERVE_ADDR" >&2
    exit 1
fi
# The daemon's -reducers and -split-records shape every plan; ntga-run
# -server sends only the query and the engine. Tiny splits make each query a
# many-task job, so the kill below lands while it runs.
"$WORK/ntga-serve" -data "$WORK/bio.nt" -addr "$SERVE_ADDR" -workers "$WORKERS_ADDR" \
    -reducers 4 -split-records 64 2>"$WORK/serve.log" &
SERVE_PID=$!
i=0
until grep -q "listening on" "$WORK/serve.log"; do
    i=$((i + 1))
    if [ "$i" -ge 50 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "ntga-serve never came up (is $SERVE_ADDR or $WORKERS_ADDR taken?); log:" >&2
        cat "$WORK/serve.log" >&2
        exit 1
    fi
    sleep 0.2
done
# -task-delay stretches each task so the mid-run kill below lands while
# work is genuinely in flight.
"$WORK/ntga-worker" -master "$WORKERS_ADDR" -task-delay 25ms 2>"$WORK/w1.log" &
W1_PID=$!
"$WORK/ntga-worker" -master "$WORKERS_ADDR" -task-delay 25ms 2>"$WORK/w2.log" &
W2_PID=$!
i=0
until "$WORK/ntga-run" -health "$SERVE_ADDR" 2>/dev/null | grep -q "workers: 2 alive / 2 registered"; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "workers never registered; status:" >&2
        "$WORK/ntga-run" -health "$SERVE_ADDR" >&2 || true
        cat "$WORK/w1.log" "$WORK/w2.log" >&2
        exit 1
    fi
    sleep 0.2
done
"$WORK/ntga-run" -health "$SERVE_ADDR"

cat >"$WORK/q.rq" <<'EOF'
PREFIX bio: <http://bio2rdf.example.org/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT * WHERE {
  ?g rdf:type bio:Gene . ?g bio:label ?l . ?g ?p ?x .
  FILTER(CONTAINS(?x, "go"))
}
EOF

echo "== distributed query vs local run (expect byte-identical stdout)"
"$WORK/ntga-run" -server "$SERVE_ADDR" -query "$WORK/q.rq" -engine ntga-lazy >"$WORK/dist.out"
"$WORK/ntga-run" -data "$WORK/bio.nt" -query "$WORK/q.rq" -engine ntga-lazy \
    -reducers 4 -split-records 64 >"$WORK/local.out"
diff "$WORK/local.out" "$WORK/dist.out" || {
    echo "distributed output differs from local run" >&2
    exit 1
}

echo "== kill one worker mid-run (expect recovery, same output)"
# -no-cache makes the daemon run the query again instead of answering it
# from its result cache.
"$WORK/ntga-run" -server "$SERVE_ADDR" -no-cache -query "$WORK/q.rq" -engine ntga-lazy \
    >"$WORK/dist2.out" &
RUN_PID=$!
sleep 0.3
kill -9 "$W2_PID"
W2_PID=""
wait "$RUN_PID" || {
    echo "query did not survive the worker kill; daemon log:" >&2
    tail -20 "$WORK/serve.log" >&2
    exit 1
}
diff "$WORK/local.out" "$WORK/dist2.out" || {
    echo "post-kill distributed output differs from local run" >&2
    exit 1
}

echo "== master noticed the loss"
# The master declares the worker dead after its heartbeat timeout (2s);
# poll until the sweep fires. -health exits non-zero for the degraded
# fleet but still prints its status.
i=0
until STATUS="$("$WORK/ntga-run" -health "$SERVE_ADDR" 2>/dev/null || true)" &&
    echo "$STATUS" | grep -q "workers_lost=1"; do
    i=$((i + 1))
    if [ "$i" -ge 20 ]; then
        echo "master never declared the killed worker lost:" >&2
        echo "$STATUS" >&2
        exit 1
    fi
    sleep 0.5
done
echo "$STATUS"
echo "$STATUS" | grep -q "workers: 1 alive / 2 registered" || {
    echo "unexpected worker liveness after kill" >&2
    exit 1
}

echo "dist-smoke: OK"
