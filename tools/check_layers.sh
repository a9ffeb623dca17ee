#!/usr/bin/env bash
# Layering check: the simulation model must not depend on the tools
# built on top of it. Fails when a file under src/ outside src/perf/ and
# src/harness/ includes a perf/ or harness/ header (the perf suite and
# the experiment harness drive the model; the model never calls back
# into them).
#
# Run from anywhere: the script cds to the repository root. Exit 0 when
# the layering holds, 1 with one line per offending include.
set -u
cd "$(dirname "$0")/.." || exit 1

bad=$(grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"(perf|harness)/' src \
          --include='*.hh' --include='*.cc' \
      | grep -vE '^src/(perf|harness)/')

if [ -n "$bad" ]; then
    echo "$bad"
    echo "check_layers: FAILED (model code includes perf/ or harness/)"
    exit 1
fi
echo "check_layers: OK"
