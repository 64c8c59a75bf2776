#!/usr/bin/env bash
# Lint gate: gofmt (no unformatted files), go vet (root and bench
# modules), and staticcheck when the tool is installed. CI environments
# without network access cannot install staticcheck, so its absence
# downgrades to a notice — the gofmt and vet gates always run and
# always fail the build on findings.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt: unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi

go vet ./...
# bench/ is its own module, compiled against the core constructors.
(cd bench && go vet ./...)

if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
else
  echo "staticcheck not installed; skipped (gofmt + go vet gates ran)"
fi

echo "LINT OK"
