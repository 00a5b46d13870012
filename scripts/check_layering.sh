#!/bin/sh
# check_layering.sh — fail if the engine, the cluster runtime, the query
# service or the binary that runs all three (cmd/scijob) depend on the
# experiment suite. Layering points one way: experiments drive the system;
# nothing a query runs through imports them — nor internal/sparsekeys, which
# only the experiments use.
# Run from the repository root; part of the docs gate.
set -eu

if go list -deps ./internal/queryd ./internal/clusterd ./internal/mapreduce ./cmd/scijob |
	grep -x -e 'scikey/internal/experiments' -e 'scikey/internal/sparsekeys' >&2; then
	echo "layering: internal/queryd, internal/clusterd, internal/mapreduce and cmd/scijob must not depend on the packages listed above" >&2
	exit 1
fi
