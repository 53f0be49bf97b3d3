#!/usr/bin/env bash
# Runs every workload once untraced (end-to-end metrics) and once traced
# (per-layer metrics), printing each run's metrics by name with its unit.
# Exits non-zero if any run fails or any output is wrong.
#
#   bash perfbench/all.sh [seed] [seconds]
#
# Run it from the root of the checkout.
set -euo pipefail

seed="${1:-1}"
seconds="${2:-20}"
status=0
for w in sort-fixed16-mem sortvar-varlen-file sortvar-flate-file sortd-volatile; do
	for trace in 0 1; do
		out=$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace")
		printf '%s\n\n' "$out"
		if ! tail -n 1 <<<"$out" | grep -q '"correct":true'; then
			echo "perfbench: $w trace=$trace: outputs not correct" >&2
			status=1
		fi
	done
done
exit "$status"
