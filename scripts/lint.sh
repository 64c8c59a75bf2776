#!/usr/bin/env bash
# Lint gate: gofmt (no unformatted files), go vet (root and bench
# modules), no internal package that only its own tests import, and
# staticcheck when the tool is installed. CI environments
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

# Every package under internal/ must be imported by a non-test package
# of the root or bench module; one that is not is dead code.
imported=$( (go list -f '{{join .Imports "\n"}}' ./... && cd bench && go list -f '{{join .Imports "\n"}}' ./...) | sort -u)
unimported=$(go list ./internal/... | sort | comm -23 - <(echo "$imported"))
if [ -n "$unimported" ]; then
  echo "internal packages imported by no non-test package:" >&2
  echo "$unimported" >&2
  exit 1
fi

if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
else
  echo "staticcheck not installed; skipped (gofmt, go vet and import gates ran)"
fi

echo "LINT OK"
