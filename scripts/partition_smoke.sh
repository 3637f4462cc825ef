#!/bin/sh
# partition_smoke.sh — end-to-end smoke test of network-partition tolerance:
# build the binaries, boot ntga-serve hosting the cluster master (-workers)
# and two ntga-worker processes (one armed with seeded wire chaos and a
# scripted mid-run partition from the master), run a stretched query
# through ntga-run -server across the partition window, and assert it
# completes byte-identical to a local run. Then kill -9 the daemon, restart
# it on the same addresses, and assert both workers re-register and the
# cluster answers queries again. Exits non-zero on any failed step.
set -eu

SERVE_ADDR="${PARTITION_SMOKE_SERVE_ADDR:-127.0.0.1:7459}"
WORKERS_ADDR="${PARTITION_SMOKE_WORKERS_ADDR:-127.0.0.1:7456}"
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

# boot starts the daemon hosting the master with the given -split-records,
# logging to $1, and waits until it listens.
boot() {
    "$WORK/ntga-serve" -data "$WORK/bio.nt" -addr "$SERVE_ADDR" -workers "$WORKERS_ADDR" \
        -reducers 4 -split-records "$2" 2>"$WORK/$1" &
    SERVE_PID=$!
    i=0
    until grep -q "listening on" "$WORK/$1"; do
        i=$((i + 1))
        if [ "$i" -ge 50 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "ntga-serve never came up (is $SERVE_ADDR or $WORKERS_ADDR taken?); log:" >&2
            cat "$WORK/$1" >&2
            exit 1
        fi
        sleep 0.2
    done
}

echo "== boot ntga-serve on $SERVE_ADDR hosting the master (-workers $WORKERS_ADDR) + 2 workers (w2 chaos-armed)"
if "$WORK/ntga-run" -health "$SERVE_ADDR" >/dev/null 2>&1; then
    echo "something already answers on $SERVE_ADDR; kill it or set PARTITION_SMOKE_SERVE_ADDR" >&2
    exit 1
fi
# Tiny splits + task delay stretch the first query past w2's partition
# window, so the cut lands while work is genuinely in flight.
boot serve.log 64
# w1 is a plain worker; w2 runs behind the seeded chaos transport (dropped
# dials + delayed messages the retry layer must absorb) and cuts itself off
# from the master 2s in, for 3s — mid-query, given the stretched run below.
"$WORK/ntga-worker" -master "$WORKERS_ADDR" -task-delay 100ms 2>"$WORK/w1.log" &
W1_PID=$!
"$WORK/ntga-worker" -master "$WORKERS_ADDR" -task-delay 100ms \
    -chaos-seed 42 -chaos-drop 0.05 -chaos-delay-rate 0.10 -chaos-delay 5ms \
    -partition-master-after 2s -partition-master-for 3s 2>"$WORK/w2.log" &
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

echo "== query through the partition window (expect recovery, local-identical output)"
"$WORK/ntga-run" -server "$SERVE_ADDR" -query "$WORK/q.rq" -engine ntga-lazy >"$WORK/dist.out" || {
    echo "query did not survive the partition; daemon log:" >&2
    tail -20 "$WORK/serve.log" >&2
    tail -20 "$WORK/w2.log" >&2
    exit 1
}
"$WORK/ntga-run" -data "$WORK/bio.nt" -query "$WORK/q.rq" -engine ntga-lazy \
    -reducers 4 -split-records 64 >"$WORK/local.out"
diff "$WORK/local.out" "$WORK/dist.out" || {
    echo "partitioned-run output differs from local run" >&2
    exit 1
}

echo "== master noticed the partition"
# The 3s partition outlasts the master's 2s heartbeat timeout: w2 must be
# declared lost (workers_lost is cumulative, so the observation sticks).
# -health exits non-zero while the fleet is degraded but still prints its
# status.
i=0
until STATUS="$("$WORK/ntga-run" -health "$SERVE_ADDR" 2>/dev/null || true)" &&
    echo "$STATUS" | grep -q "workers_lost=[1-9]"; do
    i=$((i + 1))
    if [ "$i" -ge 30 ]; then
        echo "master never declared the partitioned worker lost; status:" >&2
        echo "$STATUS" >&2
        cat "$WORK/w2.log" >&2
        exit 1
    fi
    sleep 0.5
done

echo "== fleet healed after the partition window"
i=0
until STATUS="$("$WORK/ntga-run" -health "$SERVE_ADDR" 2>/dev/null || true)" &&
    echo "$STATUS" | grep -q "workers: 2 alive / 2 registered"; do
    i=$((i + 1))
    if [ "$i" -ge 30 ]; then
        echo "fleet never healed; status:" >&2
        echo "$STATUS" >&2
        cat "$WORK/w2.log" >&2
        exit 1
    fi
    sleep 0.5
done
echo "$STATUS"
echo "$STATUS" | grep -q "rpc_retries=0 " && {
    echo "chaos + partition produced zero RPC retries; the retry layer never engaged" >&2
    exit 1
}

echo "== kill -9 the daemon (the master), restart it on the same addresses"
kill -9 "$SERVE_PID"
SERVE_PID=""
boot serve2.log 128
# The restarted master starts with an empty worker table; both workers must
# notice the loss and re-register on their own.
i=0
until STATUS="$("$WORK/ntga-run" -health "$SERVE_ADDR" 2>/dev/null || true)" &&
    echo "$STATUS" | grep -q "workers: 2 alive / 2 registered"; do
    i=$((i + 1))
    if [ "$i" -ge 60 ]; then
        echo "workers never re-registered with the restarted master; status:" >&2
        echo "$STATUS" >&2
        cat "$WORK/serve2.log" "$WORK/w1.log" "$WORK/w2.log" >&2
        exit 1
    fi
    kill -0 "$SERVE_PID" 2>/dev/null || {
        echo "restarted daemon died; log:" >&2
        cat "$WORK/serve2.log" >&2
        exit 1
    }
    sleep 0.5
done
echo "$STATUS"
echo "$STATUS" | grep -q "worker_reregistrations=0" && {
    echo "restarted master recorded zero re-registrations" >&2
    exit 1
}

echo "== post-restart query (expect local-identical output)"
"$WORK/ntga-run" -server "$SERVE_ADDR" -query "$WORK/q.rq" -engine ntga-lazy >"$WORK/dist2.out" || {
    echo "query failed after the daemon restart; daemon log:" >&2
    tail -20 "$WORK/serve2.log" >&2
    exit 1
}
"$WORK/ntga-run" -data "$WORK/bio.nt" -query "$WORK/q.rq" -engine ntga-lazy \
    -reducers 4 -split-records 128 >"$WORK/local2.out"
diff "$WORK/local2.out" "$WORK/dist2.out" || {
    echo "post-restart output differs from local run" >&2
    exit 1
}

echo "partition-smoke: OK"
