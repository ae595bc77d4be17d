#!/usr/bin/env bash
# pq_net --metrics-out: the file carries the net layer's pq_net_* counters
# next to the merged per-switch metrics, the two pass timings are tagged
# timing, and the deterministic lines (timing 0) do not move with the
# switch-level pool size.
#
# $1 is the pq_net binary.
set -euo pipefail

PQ_NET="${1:?usage: pq_net_metrics_test.sh <pq_net binary>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for t in 1 4; do
  "$PQ_NET" incast --topology fattree --ms 2 --threads "$t" \
    --metrics-out "$WORK/m$t.json" > /dev/null
  for name in pq_net_packets_injected_total pq_net_packets_delivered_total \
              pq_net_packets_dropped_total pq_net_ttl_exceeded_total \
              pq_net_transport_epochs_total pq_net_idle_fast_forwards_total \
              pq_net_hops_total pq_sim_packets_dequeued_total; do
    grep -q "\"name\":\"$name\",\"type\":\"counter\",\"timing\":0" \
      "$WORK/m$t.json" || { echo "missing $name" >&2; exit 1; }
  done
  for name in pq_net_transport_ns pq_net_telemetry_ns; do
    grep -q "\"name\":\"$name\",\"type\":\"counter\",\"timing\":1" \
      "$WORK/m$t.json" || { echo "missing timing $name" >&2; exit 1; }
  done
  grep '"timing":0' "$WORK/m$t.json" > "$WORK/det$t.txt"
done
diff "$WORK/det1.txt" "$WORK/det4.txt"

# An unwritable destination is an error, not a silent success.
if "$PQ_NET" incast --topology fattree --ms 1 \
     --metrics-out "$WORK/no/such/dir/m.json" > /dev/null 2>&1; then
  echo "pq_net accepted an unwritable --metrics-out" >&2
  exit 1
fi
echo "pq_net --metrics-out ok"
