#!/usr/bin/env bash
# codelines.sh — the code-size figure simplicity PRs quote: non-test,
# non-blank, non-comment lines of the .go files directly in each
# directory given (default: the three packages recovery spans), and
# their sum.
#
#   tools/codelines.sh                      # internal/server internal/wal internal/repl
#   tools/codelines.sh internal/server cmd/polyserve
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- internal/server internal/wal internal/repl
total=0
for d in "$@"; do
	n=$(ls "$d"/*.go | grep -v _test.go | xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l)
	printf '%-20s %6d\n' "$d" "$n"
	total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
