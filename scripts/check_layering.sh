#!/bin/sh
# check_layering.sh — fail if the engine, the cluster runtime or the query
# service depend on the experiment suite. Layering points one way:
# experiments drive the system; nothing a query runs through imports them.
# Run from the repository root; part of the docs gate.
set -eu

if go list -deps ./internal/queryd ./internal/clusterd ./internal/mapreduce | grep -qx 'scikey/internal/experiments'; then
	echo "layering: internal/queryd, internal/clusterd and internal/mapreduce must not depend on scikey/internal/experiments" >&2
	exit 1
fi
