#!/usr/bin/env python3
"""Documentation consistency gate (CI `docs` job).

Four checks, all over committed files only (no network):

1. Markdown link check. Every relative link in README.md, docs/*.md and
   bench/EXPERIMENTS.md must point at a file that exists in the repo,
   and every `#fragment` (same-file or cross-file) must resolve to a
   heading in the target document, using GitHub's anchor slugging.

2. Protocol verb drift. The verb table in docs/PROTOCOL.md must list
   exactly the wire verbs the parser knows: the set extracted from the
   `VerbName()` switch in src/serve/protocol.cc. A verb added to the
   parser without a table row fails, and so does a documented verb the
   parser no longer accepts.

3. Benchmark preset drift. The "What reproduces what" table in
   bench/EXPERIMENTS.md must list exactly the scenarios bench_driver
   runs: the names extracted from `BuildScenarios()` in
   bench/bench_driver.cc.

4. STATS field drift. Every field in docs/OPERATIONS.md's alert table
   ("STATS fields an operator should alert on") must be a key the STATS
   renderer writes inside the named block: the keys are read from the
   JsonWriter calls of `BuildStatsJson()` in src/serve/server.cc, with
   each block's path taken from the keys of its BeginObject/BeginArray
   calls (`io.per_thread[]` is an element of the `per_thread` array inside
   `io`). A dotted field such as `update_latency_us.p99` names a key of a
   nested block.

Exit status 0 when clean; 1 with one line per problem otherwise.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Documents whose outgoing links (and heading anchors) are validated.
CHECKED_DOCS = ["README.md", "docs", "bench/EXPERIMENTS.md"]

PROTOCOL_DOC = REPO / "docs" / "PROTOCOL.md"
PROTOCOL_SRC = REPO / "src" / "serve" / "protocol.cc"
PRESET_DOC = REPO / "bench" / "EXPERIMENTS.md"
PRESET_SRC = REPO / "bench" / "bench_driver.cc"
STATS_DOC = REPO / "docs" / "OPERATIONS.md"
STATS_SRC = REPO / "src" / "serve" / "server.cc"

HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
# [text](target) — target up to the first unescaped ')'; images included.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
FENCE_RE = re.compile(r"^\s*(```|~~~)")


def gather_files():
    files = []
    for entry in CHECKED_DOCS:
        path = REPO / entry
        if path.is_dir():
            files.extend(sorted(path.glob("*.md")))
        elif path.exists():
            files.append(path)
    return files


def github_slug(heading, taken):
    """GitHub's heading-to-anchor slug, with duplicate suffixing."""
    text = heading.lower()
    text = re.sub(r"[`*]", "", text)
    # Markdown links in headings anchor on their text only.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = re.sub(r"[^\w\- ]", "", text)
    slug = text.replace(" ", "-")
    if slug in taken:
        taken[slug] += 1
        slug = f"{slug}-{taken[slug]}"
    else:
        taken[slug] = 0
    return slug


def document_anchors(path, cache={}):
    if path not in cache:
        taken = {}
        anchors = set()
        in_fence = False
        for line in path.read_text(encoding="utf-8").splitlines():
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            match = HEADING_RE.match(line)
            if match:
                anchors.add(github_slug(match.group(2), taken))
        cache[path] = anchors
    return cache[path]


def iter_links(path):
    in_fence = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            yield lineno, match.group(1)


def check_links(files):
    problems = []
    for doc in files:
        rel = doc.relative_to(REPO)
        for lineno, target in iter_links(doc):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
                continue
            file_part, _, fragment = target.partition("#")
            dest = doc if not file_part else (doc.parent / file_part).resolve()
            if not dest.exists():
                problems.append(
                    f"{rel}:{lineno}: broken link '{target}' "
                    f"(no such file: {file_part})"
                )
                continue
            if not fragment:
                continue
            if dest.suffix != ".md":
                problems.append(
                    f"{rel}:{lineno}: anchor link '{target}' into a "
                    "non-markdown file"
                )
                continue
            if fragment not in document_anchors(dest):
                problems.append(
                    f"{rel}:{lineno}: broken anchor '#{fragment}' — no such "
                    f"heading in {dest.relative_to(REPO)}"
                )
    return problems


def parser_verbs():
    """Wire spellings from the VerbName() switch in protocol.cc."""
    source = PROTOCOL_SRC.read_text(encoding="utf-8")
    match = re.search(
        r"const char\* VerbName\(.*?\n\}", source, flags=re.DOTALL
    )
    if not match:
        return None
    verbs = set(re.findall(r'return "([A-Z]+)";', match.group(0)))
    return verbs or None


def documented_verbs():
    """First-column `VERB` entries of PROTOCOL.md's '### Verb table'."""
    verbs = set()
    in_table = False
    for line in PROTOCOL_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            in_table = line.strip().lower().endswith("verb table")
            continue
        if in_table:
            match = re.match(r"\|\s*`([A-Z]+)`\s*\|", line)
            if match:
                verbs.add(match.group(1))
    return verbs


def check_verbs():
    problems = []
    from_code = parser_verbs()
    if from_code is None:
        return [f"{PROTOCOL_SRC.relative_to(REPO)}: could not locate the "
                "VerbName() switch (check_docs.py needs updating)"]
    from_docs = documented_verbs()
    if not from_docs:
        return [f"{PROTOCOL_DOC.relative_to(REPO)}: found no '### Verb "
                "table' rows (check_docs.py needs updating)"]
    for verb in sorted(from_code - from_docs):
        problems.append(
            f"docs/PROTOCOL.md: verb '{verb}' exists in the parser "
            "(src/serve/protocol.cc) but has no verb-table row"
        )
    for verb in sorted(from_docs - from_code):
        problems.append(
            f"docs/PROTOCOL.md: verb '{verb}' is documented but the parser "
            "(src/serve/protocol.cc) does not know it"
        )
    return problems


def driver_scenarios():
    """Scenario names from BuildScenarios() in bench_driver.cc."""
    source = PRESET_SRC.read_text(encoding="utf-8")
    match = re.search(
        r"std::vector<Scenario> BuildScenarios\(\) \{.*?\n\}", source,
        flags=re.DOTALL,
    )
    if not match:
        return None
    names = re.findall(
        r'(?:FromWorkload|Preset)\(\s*"([a-z0-9-]+)"|s\.name = "([a-z0-9-]+)"',
        match.group(0),
    )
    return {a or b for a, b in names} or None


def documented_scenarios():
    """First-column `name` entries of EXPERIMENTS.md's 'What reproduces
    what' table."""
    names = set()
    in_table = False
    for line in PRESET_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            in_table = line.strip().lower().endswith("what reproduces what")
            continue
        if in_table:
            match = re.match(r"\|\s*`([a-z0-9-]+)`\s*\|", line)
            if match:
                names.add(match.group(1))
    return names


def check_presets():
    from_code = driver_scenarios()
    if from_code is None:
        return [f"{PRESET_SRC.relative_to(REPO)}: could not locate the "
                "scenarios in BuildScenarios() (check_docs.py needs updating)"]
    from_docs = documented_scenarios()
    problems = []
    for name in sorted(from_code - from_docs):
        problems.append(
            f"bench/EXPERIMENTS.md: scenario '{name}' exists in "
            "bench/bench_driver.cc but has no 'What reproduces what' row"
        )
    for name in sorted(from_docs - from_code):
        problems.append(
            f"bench/EXPERIMENTS.md: scenario '{name}' is documented but "
            "bench/bench_driver.cc does not define it"
        )
    return problems


def function_body(source, signature):
    """The brace-balanced body of the function whose definition starts
    with `signature`, or None."""
    start = source.find(signature)
    if start < 0:
        return None
    depth = 0
    for i in range(source.index("{", start), len(source)):
        if source[i] == "{":
            depth += 1
        elif source[i] == "}":
            depth -= 1
            if depth == 0:
                return source[start:i]
    return None


def stats_keys():
    """(block path, key) pairs written by BuildStatsJson() in server.cc.
    The root object's path is ""; a keyed block's path extends its
    parent's ("serving.update_latency_us"); an array's path ends in "[]"
    and its unkeyed elements share it; a block whose key is computed at
    run time gets "*"."""
    body = function_body(STATS_SRC.read_text(encoding="utf-8"),
                         "std::string BuildStatsJson() {")
    if body is None:
        return None
    calls = re.finditer(
        r"\bw\.(BeginObject|BeginArray|EndObject|EndArray|String|Int|Uint|"
        r"Double|Bool)\(\s*(\)|\"([^\"]*)\"|)",
        body,
    )
    keys = set()
    stack = []
    for call in calls:
        method, arg, key = call.group(1), call.group(2), call.group(3)
        if method.startswith("End"):
            if not stack:
                return None
            stack.pop()
            continue
        parent = stack[-1] if stack else ""
        if key is not None:
            keys.add((parent, key))
        if not method.startswith("Begin"):
            continue
        if not stack:
            stack.append("")
            continue
        name = key if key is not None else ("*" if arg != ")" else None)
        if name is None:
            stack.append(parent)  # An array element.
            continue
        path = f"{parent}.{name}" if parent else name
        stack.append(path + ("[]" if method == "BeginArray" else ""))
    return keys or None


def documented_stats_fields():
    """(field, block) pairs from OPERATIONS.md's alert table; a row may
    name several fields ("`lag_batches` / `lag_ops_estimate`")."""
    fields = []
    in_table = False
    for lineno, line in enumerate(
        STATS_DOC.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.startswith("#"):
            in_table = "stats fields" in line.lower()
            continue
        if not in_table or not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) < 2:
            continue
        blocks = re.findall(r"`([^`]+)`", cells[1])
        for field in re.findall(r"`([^`]+)`", cells[0]):
            fields.append((lineno, field, blocks[0] if blocks else ""))
    return fields


def check_stats_fields():
    from_code = stats_keys()
    if from_code is None:
        return [f"{STATS_SRC.relative_to(REPO)}: could not read the STATS "
                "keys from BuildStatsJson() (check_docs.py needs updating)"]
    fields = documented_stats_fields()
    if not fields:
        return [f"{STATS_DOC.relative_to(REPO)}: found no rows in the "
                "'STATS fields' alert table (check_docs.py needs updating)"]
    problems = []
    for lineno, field, block in fields:
        *nested, key = field.split(".")
        path = ".".join([block] + nested)
        if (path, key) not in from_code:
            problems.append(
                f"docs/OPERATIONS.md:{lineno}: STATS field '{field}' in block "
                f"'{block}' is not written by BuildStatsJson() "
                "(src/serve/server.cc)"
            )
    return problems


def main():
    files = gather_files()
    if not files:
        print("check_docs.py: no documentation files found", file=sys.stderr)
        return 1
    problems = (check_links(files) + check_verbs() + check_presets() +
                check_stats_fields())
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"check_docs.py: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    names = ", ".join(str(f.relative_to(REPO)) for f in files)
    print(f"check_docs.py: OK — links + anchors clean in {names}; "
          f"verb table in sync ({len(documented_verbs())} verbs); "
          f"preset table in sync ({len(documented_scenarios())} scenarios); "
          f"alert table in sync ({len(documented_stats_fields())} STATS "
          "fields)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
