#!/usr/bin/env bash
# Prints where the interpreter's hottest functions land in the
# benchmark binary: the address, and the address mod 64 (the offset in
# a cache line and a decoded-instruction window), of the compiled
# engine's slice loop, its scheduling decision and the seeded chooser.
# The same loop can measure several percent apart at two alignments,
# so compare this on both sides of an A/B before crediting or blaming
# an engine change for a few percent.
#
#   bash scripts/hotalign.sh        # this checkout
#   bash scripts/hotalign.sh DIR    # the checkout at DIR
#
# It builds the bench module with the settings bench/run.sh uses, into
# a temporary directory it removes afterwards; nothing is written under
# bench/.
set -euo pipefail
root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/bench" && go build -o "$tmp/bench" .)
go tool nm "$tmp/bench" >"$tmp/nm"
for sym in 'oha/internal/interp.(*engine).runSlice' \
	'oha/internal/interp.(*engine).pickRunnable' \
	'oha/internal/sched.(*Seeded).Choose'; do
	addr=$(awk -v s="$sym" '$3 == s && $2 == "T" { print $1 }' "$tmp/nm")
	if [ -z "$addr" ]; then
		printf '%-45s not in the binary (inlined or removed)\n' "$sym"
		continue
	fi
	printf '%-45s 0x%s  %2d mod 64\n' "$sym" "$addr" $((16#$addr % 64))
done
