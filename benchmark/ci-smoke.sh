#!/usr/bin/env bash
# CI entry point: every workload at about 1/20 size, untraced and traced,
# twice over. Checks correctness, the output schema, and that the two
# passes agree on every exact count; skips the timing bounds. A workflow
# needs one line: `run: benchmark/ci-smoke.sh`.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --smoke "$@"
