#!/usr/bin/env bash
# Line delta of src/ + bench/ between <rev> and the working tree,
# uncommitted and untracked (non-ignored) files included: the net number
# every CHANGES.md entry reports.
#
#   scripts/loc_delta.sh <rev> [path...]
#
# Paths default to src and bench; give others (say, src/fs) to count only
# those. Prints one line, "added A removed R net N". Binary files are not
# counted. Exits 2 on a usage error or an unknown revision.
set -euo pipefail

usage() {
  echo "usage: $0 <rev> [path...]" >&2
  exit 2
}

[[ $# -ge 1 && $1 != -* ]] || usage
rev=$1
shift
cd "$(git rev-parse --show-toplevel)"
if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
  echo "$0: unknown revision: $rev" >&2
  exit 2
fi
paths=("$@")
[[ ${#paths[@]} -gt 0 ]] || paths=(src bench)

{
  git diff --numstat "$rev" -- "${paths[@]}"
  git ls-files --others --exclude-standard -z -- "${paths[@]}" |
    while IFS= read -r -d '' f; do
      git diff --no-index --numstat /dev/null "$f" || true
    done
} | awk '$1 != "-" { added += $1; removed += $2 }
         END { printf "added %d removed %d net %+d\n",
                      added, removed, added - removed }'
