#!/usr/bin/env bash
# Appends the number and names of the tests the last ctest run in BUILD_DIR
# skipped to the GitHub step summary (stdout outside GitHub Actions). Reads
# ctest's own Testing/Temporary/LastTest.log, so the ctest command itself is
# unchanged; always exits 0, the ctest step keeps its own verdict.
#
# Usage: ctest-skip-summary.sh BUILD_DIR TITLE
set -euo pipefail
log="$1/Testing/Temporary/LastTest.log"
out="${GITHUB_STEP_SUMMARY:-/dev/stdout}"
if [ ! -f "$log" ]; then
  echo "### $2: no ctest log at $log" >> "$out"
  exit 0
fi
skipped=$(awk '
  /^[0-9]+\/[0-9]+ Test: / { sub(/^[0-9]+\/[0-9]+ Test: /, ""); sub(/  # GetParam.*/, ""); name = $0 }
  /^Skip regular expression found in output/ || /^Test Skipped/ { print name }
' "$log")
count=$(grep -c . <<< "$skipped" || true)
{
  echo "### $2: $count skipped"
  if [ -n "$skipped" ]; then
    sed 's/^/- /' <<< "$skipped"
  fi
} >> "$out"
