#!/usr/bin/env bash
# Run the mutant table (scripts/mutants.txt): does the suite catch each
# deliberate bug by a property?
#
#   scripts/mutants.sh [row-id ...]
#
# Copies the working tree (uncommitted edits included, `target/` not)
# into a temporary directory, whose path it prints. Then, for each row
# (every row, or the ones named), it checks that the row's `old` text
# occurs exactly once in its file, applies the row, runs
# `cargo test -q --workspace --no-fail-fast` there, and puts the file
# back. All rows share the copy's target directory, so only the first
# build is a full one.
#
# A row is `killed` when a test that is not a byte pin fails with it
# applied. The byte pins are the `*_pinned` tests (wire_identity.rs's
# digests, the LZSS pin, the connection size pin), stream_identity.rs's
# `*_pinned_bytes*` tests and the paper suite's checks of the committed
# artifact
# (`table1_matches_the_committed_artifact`,
# `handshake_bytes_match_the_committed_artifact`): a row only they
# catch changed some bytes, and nothing says the bytes were wrong, so
# it counts as `survived`. A row whose mutant does not build is
# `unbuildable`. Each row prints its verdict, the tests other than
# byte pins that failed (marking any the table does not list) and how
# many byte pins failed with them.
#
# Exits 1 if any row's `old` text is missing or not unique (before any
# test runs), or if any row survived or did not build. Needs python3.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
echo "mutants: scratch copy in $work"
git ls-files -z --cached --others --exclude-standard |
    python3 -c 'import os, sys; sys.stdout.buffer.write(b"".join(p + b"\0" for p in sys.stdin.buffer.read().split(b"\0") if p and os.path.isfile(p)))' |
    tar --null -T - -cf - | tar -x -C "$work"

python3 - "$work" "$@" <<'EOF'
import re, subprocess, sys

work, wanted = sys.argv[1], sys.argv[2:]

def rows(path):
    """The table's rows, in order, each a dict of its fields."""
    out, row, block = [], None, None
    for n, line in enumerate(open(path, encoding="utf-8"), 1):
        line = line.rstrip("\n")
        if line.startswith("#") or not line.strip():
            block = None
            continue
        if line.startswith("row "):
            row = {"id": line[4:].strip(), "old": [], "new": []}
            out.append(row)
        elif row is None:
            sys.exit(f"mutants: {path}:{n}: text before the first row")
        elif line in ("old:", "new:"):
            block = line[:-1]
        elif line.startswith("|") and block:
            row[block].append(line[2:] if line.startswith("| ") else line[1:])
        elif ":" in line:
            key, value = line.split(":", 1)
            row[key.strip()] = value.strip()
            block = None
        else:
            sys.exit(f"mutants: {path}:{n}: cannot read {line!r}")
    for row in out:
        for key in ("file", "class", "killers"):
            if key not in row:
                sys.exit(f"mutants: row {row['id']} has no {key}")
        row["old"], row["new"] = "\n".join(row["old"]), "\n".join(row["new"])
        row["killers"] = [k.strip() for k in row["killers"].split(",") if k.strip()]
    return out

table = rows("scripts/mutants.txt")
unknown = [w for w in wanted if w not in {r["id"] for r in table}]
if unknown:
    sys.exit(f"mutants: no row {', '.join(unknown)}")
table = [r for r in table if not wanted or r["id"] in wanted]

# Every row must apply before any of them runs.
sources = {}
for row in table:
    text = open(f"{work}/{row['file']}", encoding="utf-8").read()
    count = text.count(row["old"]) if row["old"] else 0
    if count != 1:
        sys.exit(f"mutants: row {row['id']}: its old text occurs {count} times "
                 f"in {row['file']}, not once")
    sources[row["id"]] = text

PINS = re.compile(r"(_pinned|_pinned_bytes.*|^table1_matches_the_committed_artifact"
                  r"|^handshake_bytes_match_the_committed_artifact)$")

def failed_tests(output):
    """The names listed under each test binary's `failures:` heading."""
    names, listing = [], False
    for line in output.splitlines():
        if line == "failures:":
            listing = True
        elif listing and line.startswith("    "):
            names.append(line.strip())
        elif listing and line.strip():
            listing = False
    return sorted(set(names))

bad = 0
for row in table:
    path = f"{work}/{row['file']}"
    original = sources[row["id"]]
    open(path, "w", encoding="utf-8").write(original.replace(row["old"], row["new"]))
    try:
        run = subprocess.run(["cargo", "test", "-q", "--workspace", "--no-fail-fast"],
                             cwd=work, capture_output=True, text=True)
    finally:
        open(path, "w", encoding="utf-8").write(original)
    output = run.stdout + run.stderr
    open(f"{work}/{row['id']}.log", "w", encoding="utf-8").write(output)
    failed = failed_tests(output)
    short = lambda name: name.rsplit("::", 1)[-1]
    killers = [t for t in failed if not PINS.search(short(t))]
    if run.returncode != 0 and not failed:
        verdict = "unbuildable"
    elif killers:
        verdict = "killed"
    else:
        verdict = "survived"
    expected = {short(k) for k in row["killers"]}
    shown = [t + ("" if short(t) in expected else " (not in the table)") for t in killers]
    missed = sorted(expected - {short(t) for t in failed})
    print(f"{row['id']:<4} {verdict:<11} {row['class']}")
    print(f"     failed: {', '.join(shown) or 'no property'}"
          f" (+ {len(failed) - len(killers)} byte pins)")
    if missed:
        print(f"     expected but passed: {', '.join(missed)}")
    sys.stdout.flush()
    bad += verdict != "killed"
sys.exit(1 if bad else 0)
EOF
