#!/usr/bin/env bash
# codelines.sh — the code-size figure simplicity PRs quote: non-test,
# non-blank, non-comment lines of the .go files directly in each
# directory given (default: the six packages the request and push
# paths span — ROADMAP item 4's set, plus the field reader wire decodes
# with), and their sum.
#
#   tools/codelines.sh                      # the six defaults below
#   tools/codelines.sh internal/server internal/wal internal/repl
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- internal/server internal/repl internal/wire internal/codec internal/session internal/server/client
total=0
for d in "$@"; do
	n=$(ls "$d"/*.go | grep -v _test.go | xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l)
	printf '%-24s %6d\n' "$d" "$n"
	total=$((total + n))
done
printf '%-24s %6d\n' total "$total"
