#!/usr/bin/env bash
# Counts the non-test lines of the service, the CLI and the JSON layer:
# the lines before each file's first `#[cfg(test)]`, summed over the
# tracked files of crates/serve/src, src/bin/ucsim.rs, crates/derive/src
# and crates/model/src/json.rs. Files that are not yet added to git are
# not counted.
#
# Usage: scripts/count_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files crates/serve/src src/bin/ucsim.rs crates/derive/src crates/model/src/json.rs |
    xargs awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n }'
