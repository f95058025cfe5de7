#!/usr/bin/env bash
# testonly.sh — exported functions and methods in internal/ that only
# tests call. A name is flagged when its identifier appears on no
# non-test, non-comment line of any tracked .go file (cmd/, examples/,
# bench/ and the root package count as callers) other than the lines
# that declare it. Names that share an identifier with a called name
# are invisible to this check.
#
# tools/testonly.allow lists the names kept anyway, one "<dir> <Name>
# # reason" a line. A flagged name not on the list is printed as
# "<dir> <Name>"; a list line naming nothing flagged (the name is gone,
# or it gained a caller) is printed as "stale: <dir> <Name>". Either
# makes the script exit 1, so the list can only shrink.
#
#   tools/testonly.sh    # prints nothing and exits 0 on a clean tree
set -euo pipefail
cd "$(dirname "$0")/.."
flagged=$(mktemp) allowed=$(mktemp)
trap 'rm -f "$flagged" "$allowed"' EXIT
sed 's/#.*//' tools/testonly.allow | awk 'NF { print $1, $2 }' | sort -u >"$allowed"
git ls-files -z -- '*.go' ':!:*_test.go' | xargs -0 awk '
	/^[ \t]*\/\// { next }
	{ sub(/[ \t]\/\/.*$/, "") }
	FILENAME ~ /^internal\// && match($0, /^func (\([^)]*\) *)?[A-Z][A-Za-z0-9_]*/) {
		decl = substr($0, 1, RLENGTH); sub(/.* |.*\)/, "", decl)
		dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
		decls[decl] = decls[decl] " " dir; ndecl[decl]++
	}
	{
		split("", seen); line = $0
		while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
			id = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
			if (!(id in seen)) { seen[id] = 1; lines[id]++ }
		}
	}
	END {
		for (n in ndecl) if (lines[n] == ndecl[n]) {
			k = split(substr(decls[n], 2), ds, " ")
			for (i = 1; i <= k; i++) print ds[i], n
		}
	}' | sort -u >"$flagged"
comm -23 "$flagged" "$allowed"
comm -13 "$flagged" "$allowed" | sed 's/^/stale: /'
[ -z "$(comm -3 "$flagged" "$allowed")" ]
