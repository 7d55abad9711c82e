"""Seeded corpus generator for the scan-all benchmark.

For one seed and one workload it writes a corpus in the layout
``slsa_audit.ingest`` reads, an offline advisory database, and a ledger of
everything it planted: per component, the advisories whose ranges contain
its declared versions, the archives that carry the test signature (with the
nested path) or are bombs, the docker rule ids and the IaC rule ids it must
trigger, plus the V5 near-name pairs and collisions found by a brute-force
OSA pass of the benchmark's own.

The ledger is computed here, with this module's own version comparison and
edit distance; the program under test only ever sees the generated files.

Usage: python3 perfbench/corpus.py --seed N --workload NAME --out DIR --db DBDIR
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import string
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mixed", "names", "artifacts")

# Advisory database size. A real ecosystem export is around 10^4
# advisories; loading it, not interpreter start-up, dominates set-up time.
DB_ADVISORIES = 10_000
MIXED_COMPONENTS = 300
NAMES_COMPONENTS = 200
NAMES_PUBLISHERS = 40
ARTIFACT_COMPONENTS = 24

EICAR = rb"X5O!P%@AP[4\PZX54(P^)7CC)7}$EI" + rb"CAR-STANDARD-ANTIVIRUS-TEST-FILE!$H+H*"

ECOSYSTEM_SIZES = {"npm": 1400, "pypi": 800, "gomod": 300, "os-packages": 400}

# ---------------------------------------------------------------------------
# Independent version comparison and range evaluation
# ---------------------------------------------------------------------------


def version_key(text: str) -> tuple:
    """Dot segments, each split into a numeric head and a text tail.

    "1.0.1" < "1.0.1f" < "1.0.1g" < "1.0.2"; a missing segment counts as 0.
    """
    key = []
    for segment in text.split("."):
        digits = ""
        while segment and segment[0].isdigit():
            digits += segment[0]
            segment = segment[1:]
        key.append((int(digits or 0), segment))
    while len(key) < 3:
        key.append((0, ""))
    return tuple(key)


def affected(version: str, events: list[dict]) -> bool:
    """Whether an OSV SEMVER event list covers the version."""
    v = version_key(version)
    low = None
    opened = False
    for event in events:
        if "introduced" in event:
            if opened and (low is None or low <= v):
                return True
            low = None if event["introduced"] == "0" else version_key(event["introduced"])
            opened = True
        elif "fixed" in event or "last_affected" in event:
            high = version_key(event.get("fixed") or event["last_affected"])
            above_low = low is None or low <= v
            below_high = v < high if "fixed" in event else v <= high
            if above_low and below_high:
                return True
            low, opened = None, False
    return opened and (low is None or low <= v)


def osa(a: str, b: str) -> int:
    """Optimal-string-alignment distance, full-matrix reference form."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[-1][-1]


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

_SYLLABLES = (
    "ac", "al", "an", "ar", "ba", "be", "bo", "ca", "ce", "co", "da", "de", "do", "el",
    "en", "fa", "fi", "ga", "go", "ha", "in", "ka", "ki", "la", "le", "lo", "ma", "me",
    "mi", "na", "ne", "no", "or", "pa", "pe", "qu", "ra", "re", "ri", "sa", "se", "si",
    "ta", "te", "ti", "to", "va", "ve", "vi", "xa", "ya", "zo",
)
_WORDS = (
    "api", "archiver", "auth", "backup", "batch", "bridge", "cache", "cdn", "cron",
    "csv", "dispatcher", "edge", "etl", "event", "export", "feed", "gateway", "graph",
    "hook", "image", "import", "index", "ingest", "invoice", "job", "kafka", "lambda",
    "ledger", "log", "mailer", "metrics", "notifier", "ocr", "pdf", "pipeline", "poller",
    "proxy", "queue", "render", "report", "resizer", "router", "scheduler", "search",
    "shipper", "sms", "sync", "thumbnail", "tracker", "transcoder", "upload", "video",
    "webhook", "worker", "zip",
)
_PUB_SUFFIXES = ("", "", "", "labs", "io", "dev", "hq", "cloud", "ops", "soft")


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


def _publisher(rng: random.Random) -> str:
    return _word(rng, rng.randint(2, 3)) + rng.choice(_PUB_SUFFIXES)


def _image(rng: random.Random) -> str:
    words = rng.sample(_WORDS, rng.randint(1, 2))
    name = "-".join(words)
    roll = rng.random()
    if roll < 0.3:
        name += "-serverless"
    elif roll < 0.4:
        name = "sls-" + name
    return name


def _typo(rng: random.Random, name: str) -> str:
    """One OSA edit: transposition, substitution, deletion or insertion."""
    for _ in range(20):
        i = rng.randrange(len(name))
        op = rng.randrange(4)
        if op == 0 and i + 1 < len(name) and name[i] != name[i + 1]:
            out = name[:i] + name[i + 1] + name[i] + name[i + 2:]
        elif op == 1:
            out = name[:i] + rng.choice(string.ascii_lowercase) + name[i + 1:]
        elif op == 2 and len(name) > 3:
            out = name[:i] + name[i + 1:]
        else:
            out = name[:i] + rng.choice(string.ascii_lowercase) + name[i:]
        if out != name and out[0].isalnum() and out[-1].isalnum():
            return out
    return name + "x"


# ---------------------------------------------------------------------------
# Advisory database
# ---------------------------------------------------------------------------


def _semver(rng: random.Random) -> str:
    return f"{rng.randint(0, 5)}.{rng.randint(0, 15)}.{rng.randint(0, 15)}"


def _package_names(rng: random.Random) -> dict[str, list[str]]:
    taken: set[str] = set()
    universe: dict[str, list[str]] = {}
    for eco, size in ECOSYSTEM_SIZES.items():
        names: list[str] = []
        while len(names) < size:
            base = _word(rng, rng.randint(2, 4))
            if eco == "npm":
                name = base + rng.choice(("", "-js", "-core", "-utils", "-lite"))
            elif eco == "pypi":
                name = base + rng.choice(("", "-py", "lib", "-client", "tools"))
            elif eco == "gomod":
                name = f"github.com/{_word(rng, 2)}/{base}"
            else:
                name = "lib" + base
            if name not in taken:
                taken.add(name)
                names.append(name)
        universe[eco] = names
    return universe


def _events(rng: random.Random) -> list[dict]:
    low = _semver(rng)
    high = _semver(rng)
    if version_key(high) < version_key(low):
        low, high = high, low
    if low == high:
        high = f"{int(high.split('.')[0]) + 1}.0.0"
    shape = rng.random()
    if shape < 0.25:
        return [{"introduced": "0"}, {"fixed": high}]
    if shape < 0.35:
        return [{"introduced": low}, {"last_affected": high}]
    if shape < 0.45:
        return [{"introduced": "0"}, {"fixed": low}, {"introduced": high}]
    return [{"introduced": low}, {"fixed": high}]


def build_db(seed: int, db_dir: Path) -> dict:
    """The advisories and package universe of a seed: DB_ADVISORIES OSV-subset
    documents, the demo's among them. They are written to db_dir unless it
    already exists; the same seed always gives the same documents."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from slsa_audit.demo import build_demo_db

    partial = db_dir.parent / f".partial-{db_dir.name}-{os.getpid()}"
    shutil.rmtree(partial, ignore_errors=True)
    build_demo_db(partial)
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(partial.glob("*.json"))]
    demo_count = len(docs)
    rng = random.Random(f"db:{seed}")
    universe = _package_names(rng)
    packages = [(eco, name) for eco, names in universe.items() for name in names]
    for index in range(DB_ADVISORIES - len(docs)):
        eco, name = rng.choice(packages)
        doc = {
            "id": f"BENCH-{seed}-{index:05d}",
            "summary": f"synthetic advisory {index} for {name}",
            "affected": [
                {
                    "package": {"ecosystem": eco, "name": name},
                    "ranges": [{"type": "SEMVER", "events": _events(rng)}],
                }
            ],
        }
        if rng.random() < 0.9:
            doc["severity"] = [{"type": "CVSS_V3", "score": f"{rng.randint(1, 100) / 10:.1f}"}]
        docs.append(doc)
    if db_dir.exists():
        shutil.rmtree(partial)
    else:
        for doc in docs[demo_count:]:
            (partial / f"{doc['id']}.json").write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        partial.rename(db_dir)
    return {"universe": universe, "docs": docs}


def _advisory_index(docs: list[dict]) -> dict[tuple[str, str], list[dict]]:
    index: dict[tuple[str, str], list[dict]] = {}
    for doc in docs:
        for entry in doc["affected"]:
            pkg = entry["package"]
            index.setdefault((pkg["ecosystem"], pkg["name"]), []).append(
                {"id": doc["id"], "ranges": entry["ranges"]}
            )
    return index


def expected_matches(declared, index) -> list[list[str]]:
    """Distinct (advisory, package, version) triples the declarations hit."""
    hits = set()
    for eco, name, version in declared:
        for adv in index.get((eco, name), []):
            if any(affected(version, r["events"]) for r in adv["ranges"] if r["type"] == "SEMVER"):
                hits.add((adv["id"], name, version))
    return [list(h) for h in sorted(hits)]


# ---------------------------------------------------------------------------
# Corpus writing helpers
# ---------------------------------------------------------------------------


def _write(path: Path, content: str | bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")


def _meta(repository: str, publisher: str, name: str, **extra: str) -> str:
    lines = [f"repository={repository}", f"publisher={publisher}", f"name={name}"]
    lines += [f"{k}={extra[k]}" for k in sorted(extra)]
    return "\n".join(lines) + "\n"


def _pick_declared(rng, universe, counts: dict[str, int]) -> list[tuple[str, str, str]]:
    declared = []
    for eco, count in counts.items():
        for name in rng.sample(universe[eco], count):
            declared.append((eco, name, _semver(rng)))
    return declared


def _manifest_files(declared, rng, prefix: str = "") -> dict[str, str]:
    """Manifests for (ecosystem, name, version) triples, one file per kind."""
    by_eco: dict[str, list[tuple[str, str]]] = {}
    for eco, name, version in declared:
        by_eco.setdefault(eco, []).append((name, version))
    files: dict[str, str] = {}
    if "npm" in by_eco:
        deps = {n: (f"^{v}" if rng.random() < 0.5 else v) for n, v in by_eco["npm"]}
        files[prefix + "package.json"] = json.dumps(
            {"name": "app", "version": "1.0.0", "dependencies": deps}, indent=2
        ) + "\n"
        lock = {"node_modules/" + n: {"version": v} for n, v in by_eco["npm"]}
        files[prefix + "package-lock.json"] = json.dumps(
            {"name": "app", "lockfileVersion": 2, "packages": {"": {"name": "app"}, **lock}},
            indent=2,
        ) + "\n"
    if "pypi" in by_eco:
        files[prefix + "requirements.txt"] = "".join(f"{n}=={v}\n" for n, v in by_eco["pypi"])
    if "gomod" in by_eco:
        body = "".join(f"\t{n} v{v}\n" for n, v in by_eco["gomod"])
        files[prefix + "go.mod"] = f"module example.com/app\n\ngo 1.21\n\nrequire (\n{body})\n"
    if "os-packages" in by_eco:
        files[prefix + "os-packages.txt"] = "".join(f"{n}={v}\n" for n, v in by_eco["os-packages"])
    return files


def _source_file(rng, declared, ext: str, lines: int) -> str:
    imports = []
    for eco, name, _ in rng.sample(declared, min(len(declared), rng.randint(0, 6))):
        if ext == ".js" and eco == "npm":
            imports.append(f"const m{len(imports)} = require('{name}');")
        elif ext == ".py" and eco == "pypi":
            imports.append(f"import {name.replace('-', '_')}")
        elif ext == ".go" and eco == "gomod":
            imports.append(f'import "{name}"')
    body = [f"// step {i}: value = compute({i}, {rng.randint(0, 999)})" for i in range(lines)]
    return "\n".join(imports + body) + "\n"


# ---------------------------------------------------------------------------
# V5 reference: brute-force OSA over same-kind names
# ---------------------------------------------------------------------------


def v5_reference(components: dict[str, dict]) -> dict:
    """Near pairs (OSA exactly 1) and cross-publisher identical names.

    Mirrors the default scan: AWS SAR components are left out, names are
    lowercased, and each component contributes a publisher and an image name.
    """
    by_kind: dict[str, dict[str, list[str]]] = {"username": {}, "image": {}}
    for slug, comp in components.items():
        ref = comp["ref"]
        if ref["repository"] == "awssar":
            continue
        by_kind["username"].setdefault(ref["publisher"].lower(), []).append(slug)
        by_kind["image"].setdefault(ref["name"].lower(), []).append(slug)
    near, collisions = [], []
    for kind, owners in by_kind.items():
        names = sorted(owners)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if abs(len(a) - len(b)) <= 1 and osa(a, b) == 1:
                    near.append([kind, a, b, owners[a], owners[b]])
        for name in names:
            slugs = owners[name]
            for i, sa in enumerate(slugs):
                for sb in slugs[i + 1:]:
                    pa = components[sa]["ref"]["publisher"].lower()
                    pb = components[sb]["ref"]["publisher"].lower()
                    if pa != pb:
                        collisions.append([kind, name, sa, sb])
    return {"near_pairs": near, "collisions": collisions}


def _new_component(repository: str, publisher: str, name: str) -> dict:
    return {
        "ref": {"repository": repository, "publisher": publisher, "name": name},
        "declared": [],
        "v2": {"signatures": [], "bombs": []},
        "v3": [],
        "v4": [],
    }


def _unique_names(rng, count: int, taken: set[tuple[str, str]], publishers: list[str]):
    out = []
    while len(out) < count:
        pair = (rng.choice(publishers), _image(rng))
        if pair not in taken:
            taken.add(pair)
            out.append(pair)
    return out


# ---------------------------------------------------------------------------
# Workload: mixed
# ---------------------------------------------------------------------------

# What each demo template plants, read off its files: declared packages,
# docker rule ids and (rule id, template) pairs.
DEMO_TEMPLATES = {
    "acme__serverless-resizer": {
        "declared": [("npm", "lodash", "4.17.11")],
        "v3": ["V3-HOST-MOUNT", "V3-SENSITIVE-ENV"],
    },
    "acmelabs__serverless-resizers": {},
    "bluefin__etl-serverless": {
        "declared": [("pypi", "urllib3", "1.25.8"), ("pypi", "requests", "2.0")],
        "v4": [["IAC-API-LOGGING-DISABLED", "iac/template.yaml"], ["R-CORS", "iac/template.yaml"]],
    },
    "bluefin__etl-serverles": {},
    "cloudkite__thumbnail-service": {"v4": [["R-ARN", "iac/template.yaml"]]},
    "pluginworks__sls-offline-sim": {"declared": [("npm", "minimist", "1.2.5")]},
    "quayteam__event-gateway": {
        "declared": [("os-packages", "openssl", "1.0.1f"), ("os-packages", "curl", "7.61.0")],
    },
    "weaver__socket-bridge": {"v3": ["V3-DOCKER-SOCK"]},
    "nadir__miner-serverless": {
        "v3": ["V3-HARDCODED-CREDENTIAL", "V3-PID-HOST", "V3-PRIVILEGED"],
    },
    "acme__iac-library-serverless": {
        "v4": [
            ["IAC-S3-PUBLIC-ACL", "iac/main.tf"],
            ["R-ARN", "iac/main.tf"],
            ["R-KMS", "iac/stack.json"],
        ],
    },
    "testbed__zip-bundle-serverless": {
        "signatures": [["archives/bundle.zip", "vendor/cache.bin"]],
    },
    "dana__queue-worker-serverless": {
        "declared": [("gomod", "github.com/gin-gonic/gin", "1.4.0")],
    },
}


def build_mixed(rng, corpus: Path, universe) -> dict[str, dict]:
    from slsa_audit.demo import build_demo_corpus

    demo = Path(tempfile.mkdtemp(prefix="demo-", dir=corpus.parent))
    build_demo_corpus(demo)
    templates = list(DEMO_TEMPLATES)
    if sorted(p.name for p in demo.iterdir()) != sorted(templates):
        raise RuntimeError("the demo corpus changed; update DEMO_TEMPLATES")
    publishers = [_publisher(rng) for _ in range(MIXED_COMPONENTS // 3)]
    taken: set[tuple[str, str]] = set()
    pairs = _unique_names(rng, MIXED_COMPONENTS, taken, publishers)
    # Plant squatting: a typo of an earlier image, or the same image under
    # another publisher, and a few publisher typos.
    for i in range(10, MIXED_COMPONENTS):
        roll = rng.random()
        if roll < 0.08:
            pub, image = pairs[rng.randrange(i)]
            candidate = (rng.choice(publishers), _typo(rng, image))
        elif roll < 0.11:
            pub, image = pairs[rng.randrange(i)]
            candidate = (rng.choice([p for p in publishers if p != pub]), image)
        elif roll < 0.13:
            candidate = (_typo(rng, pairs[rng.randrange(i)][0]), pairs[i][1])
        else:
            continue
        if candidate not in taken:
            taken.add(candidate)
            pairs[i] = candidate
    components: dict[str, dict] = {}
    for i, (publisher, name) in enumerate(pairs):
        template = templates[i % len(templates)]
        facts = DEMO_TEMPLATES[template]
        src = demo / template
        meta = dict(
            line.split("=", 1)
            for line in (src / "component.meta").read_text(encoding="utf-8").splitlines()
        )
        repository = meta.pop("repository")
        for key in ("publisher", "name", "version"):
            meta.pop(key, None)
        slug = f"{publisher}__{name}"
        dest = corpus / slug
        shutil.copytree(src, dest)
        _write(dest / "component.meta", _meta(repository, publisher, name, **meta))
        comp = _new_component(repository, publisher, name)
        comp["declared"] = list(facts.get("declared", []))
        comp["v3"] = list(facts.get("v3", []))
        comp["v4"] = [list(x) for x in facts.get("v4", [])]
        comp["v2"]["signatures"] = [list(x) for x in facts.get("signatures", [])]
        # Extra dependencies drawn from the advisory universe.
        eco = list(ECOSYSTEM_SIZES)[i % len(ECOSYSTEM_SIZES)]
        extra = _pick_declared(rng, universe, {eco: 3 + i % 6})
        for rel, text in _manifest_files(extra, rng, "deps/").items():
            _write(dest / "tree" / rel, text)
        ext = {"npm": ".js", "pypi": ".py", "gomod": ".go"}.get(eco, ".sh")
        _write(dest / "tree" / "deps" / f"main{ext}", _source_file(rng, extra, ext, 20))
        comp["declared"] += extra
        components[slug] = comp
    shutil.rmtree(demo)
    return components


# ---------------------------------------------------------------------------
# Workload: names
# ---------------------------------------------------------------------------


def build_names(rng, corpus: Path) -> dict[str, dict]:
    """Meta-only components whose names differ by a numeric suffix.

    Every tenth component re-uses an earlier image name under another
    publisher, so cross-publisher collisions appear too.
    """
    base = "".join(rng.choices(string.ascii_lowercase, k=7))
    pub_base = "".join(rng.choices(string.ascii_lowercase, k=5))
    publishers = [f"{pub_base}{j}" for j in range(1, NAMES_PUBLISHERS + 1)]
    components: dict[str, dict] = {}
    images: list[tuple[str, str]] = []
    suffix = 0
    for i in range(NAMES_COMPONENTS):
        if i % 10 == 9:
            orig_pub, name = images[rng.randrange(len(images))]
            publisher = rng.choice([p for p in publishers if p != orig_pub])
            if (publisher, name) in images:
                suffix += 1
                name = f"{base}-fn{suffix}"
        else:
            suffix += 1
            name = f"{base}-fn{suffix}"
            publisher = rng.choice(publishers)
        images.append((publisher, name))
        slug = f"{publisher}__{name}"
        _write(corpus / slug / "component.meta", _meta("dockerhub", publisher, name))
        components[slug] = _new_component("dockerhub", publisher, name)
    return components


# ---------------------------------------------------------------------------
# Workload: artifacts
# ---------------------------------------------------------------------------

ARCHIVE_FORMATS = ("7z", "tar", "tar.bz2", "tar.gz", "tar.lzma", "tar.xz", "tar.zst", "zip")


def _pack(items: list[tuple[str, bytes]], fmt: str) -> bytes:
    from slsa_audit import archive

    return archive.pack_entries(items, archive.ArchiveFormat(fmt))


def _archive_items(rng, count: int) -> list[tuple[str, bytes]]:
    items = []
    for i in range(count):
        ext = rng.choice((".py", ".js", ".json", ".md"))
        lines = "".join(f"line {j} {rng.random():.6f}\n" for j in range(20 + 15 * (i % 5)))
        items.append((f"pkg/mod{i // 8}/file{i}{ext}", lines.encode()))
    return items


def _archives(rng, index: int) -> tuple[dict[str, bytes], list, list]:
    """Eight benign archives; some carry the signature, some are bombs."""
    files: dict[str, bytes] = {}
    signatures: list[list[str]] = []
    bombs: list[str] = []
    # Formats go by index, not by seed, so every seed inflates the same kinds.
    carrier = ARCHIVE_FORMATS[index % 8] if index % 3 == 0 else None
    nested_host = ARCHIVE_FORMATS[(index // 4 + 2) % 8] if index % 4 == 1 else None
    for fmt in ARCHIVE_FORMATS:
        items = _archive_items(rng, 16 + 2 * (index % 9))
        name = f"bundle-{fmt.replace('.', '-')}.{fmt}"
        if fmt == carrier:
            path = f"vendor/cache{rng.randint(0, 99)}.bin"
            items.append((path, b"prefix " + EICAR + b" suffix"))
            signatures.append([f"archives/{name}", path])
        if fmt == nested_host:
            inner_fmt = ("zip", "tar.gz", "7z")[index % 3]
            inner_items = _archive_items(rng, 6) + [("payload/dropper.bin", EICAR)]
            inner = f"lib/inner.{inner_fmt}"
            items.append((inner, _pack(inner_items, inner_fmt)))
            signatures.append([f"archives/{name}", f"{inner}!payload/dropper.bin"])
        files[name] = _pack(items, fmt)
    if index % 6 == 2:
        fmt = ("tar.bz2", "tar.xz", "tar.zst")[index // 6 % 3]
        name = f"blob.{fmt}"
        files[name] = _pack([("data/zeros.bin", bytes(4 << 20))], fmt)
        bombs.append(f"archives/{name}")
    return files, signatures, bombs


_DOCKER_PLANTS = {
    "V3-HOST-MOUNT": lambda rng: f"-v /srv/{_word(rng, 2)}:/data",
    "V3-DOCKER-SOCK": lambda rng: "-v /var/run/docker.sock:/var/run/docker.sock",
    "V3-PRIVILEGED": lambda rng: "--privileged",
    "V3-PID-HOST": lambda rng: "--pid=host",
    "V3-SENSITIVE-ENV": lambda rng: f"-e {rng.choice(('API_TOKEN', 'DB_PASSWORD', 'GH_SECRET'))}",
    "V3-HARDCODED-CREDENTIAL": lambda rng: "-e AWS_KEY=AKIA"
    + "".join(rng.choices(string.ascii_uppercase + string.digits, k=16)),
}
_DOCKER_CLEAN = ("-d", "--rm", "-p 8080:8080", "-e LOG_LEVEL=info", "-v cache:/cache",
                 "--name svc", "-e REGION=eu-west-1", "--restart always")


def _run_commands(rng, publisher: str, name: str) -> tuple[str, list[str]]:
    planted: set[str] = set()
    lines = []
    for _ in range(4):
        flags = list(rng.sample(_DOCKER_CLEAN, 3))
        if rng.random() < 0.6:
            rule = rng.choice(sorted(_DOCKER_PLANTS))
            planted.add(rule)
            flags.append(_DOCKER_PLANTS[rule](rng))
        rng.shuffle(flags)
        command = "docker run " + " ".join(flags) + f" {publisher}/{name}:latest"
        if rng.random() < 0.3:
            command = command.replace(" -", " \\\n  -", 1)
        lines.append(command)
    lines.insert(1, f"# pull first: docker pull {publisher}/{name}")
    return "\n".join(lines) + "\n", sorted(planted)


def _cfn_resource(rng, i: int, sam: bool) -> tuple[str, dict, set[str]]:
    """One CloudFormation/SAM resource and the rule ids it must trigger."""
    kind = rng.randrange(6)
    bad = rng.random() < 0.35
    rid = f"Res{i}"
    fn_ref = {"Ref": f"Fn{i}"}
    if kind == 0:
        props = {"Action": "lambda:InvokeFunction", "FunctionName": fn_ref,
                 "Principal": "s3.amazonaws.com"}
        if not bad:
            props["SourceArn"] = f"arn:aws:s3:::bucket-{i}"
        return rid, {"Type": "AWS::Lambda::Permission", "Properties": props}, {"R-ARN"} if bad else set()
    if kind == 1:
        default = {"SSEAlgorithm": "aws:kms"}
        variant = rng.randrange(2) if bad else -1
        if variant != 0:
            default["KMSMasterKeyID"] = f"arn:aws:kms:eu-west-1:111122223333:key/{i}"
        props = {
            "BucketName": f"bucket-{i}",
            "AccessControl": "PublicRead" if variant == 1 else "Private",
            "BucketEncryption": {
                "ServerSideEncryptionConfiguration": [{"ServerSideEncryptionByDefault": default}]
            },
        }
        rules = {"R-KMS"} if variant == 0 else {"IAC-S3-PUBLIC-ACL"} if variant == 1 else set()
        return rid, {"Type": "AWS::S3::Bucket", "Properties": props}, rules
    if kind == 2:
        action = "*" if bad else ["s3:GetObject", "s3:PutObject"]
        statement = [{"Effect": "Allow", "Action": action, "Resource": "*"}]
        if rng.random() < 0.5:
            return rid, {"Type": "AWS::IAM::Policy", "Properties": {
                "PolicyName": f"policy{i}", "Roles": [{"Ref": "Role"}],
                "PolicyDocument": {"Version": "2012-10-17", "Statement": statement}}}, (
                {"IAC-IAM-WILDCARD-ACTION"} if bad else set())
        return rid, {"Type": "AWS::IAM::Role", "Properties": {
            "AssumeRolePolicyDocument": {"Version": "2012-10-17", "Statement": []},
            "Policies": [{"PolicyName": f"inline{i}",
                          "PolicyDocument": {"Version": "2012-10-17", "Statement": statement}}]}}, (
            {"IAC-IAM-WILDCARD-ACTION"} if bad else set())
    if kind == 3:
        props = {"Handler": "index.handler", "Runtime": "nodejs18.x",
                 "Environment": {"Variables": {"TABLE": {"Ref": "Table"}, "STAGE": "prod"}}}
        if not bad:
            props["KmsKeyArn"] = f"arn:aws:kms:eu-west-1:111122223333:key/{i}"
        if sam:
            props["CodeUri"] = f"src/fn{i}/"
            rtype = "AWS::Serverless::Function"
        else:
            props["Code"] = {"S3Bucket": "code", "S3Key": f"fn{i}.zip"}
            props["Role"] = {"Fn::GetAtt": ["Role", "Arn"]}
            rtype = "AWS::Lambda::Function"
        return rid, {"Type": rtype, "Properties": props}, {"IAC-LAMBDA-ENV-NO-KMS"} if bad else set()
    if kind == 4:
        log = {"DestinationArn": f"arn:aws:logs:eu-west-1:111122223333:log-group:api{i}",
               "Format": "$context.requestId"}
        if sam:
            props = {"StageName": "prod", "Auth": {"DefaultAuthorizer": "Cognito"}}
            if not bad:
                props["AccessLogSetting"] = log
            return rid, {"Type": "AWS::Serverless::Api", "Properties": props}, (
                {"IAC-API-LOGGING-DISABLED"} if bad else set())
        props = {"StageName": "prod", "RestApiId": {"Ref": "Api"}}
        if not bad:
            props["AccessLogSettings"] = log
        return rid, {"Type": "AWS::ApiGateway::Stage", "Properties": props}, (
            {"IAC-API-LOGGING-DISABLED"} if bad else set())
    props = {"TableName": f"table{i}", "BillingMode": "PAY_PER_REQUEST",
             "AttributeDefinitions": [{"AttributeName": "pk", "AttributeType": "S"}],
             "KeySchema": [{"AttributeName": "pk", "KeyType": "HASH"}]}
    return rid, {"Type": "AWS::DynamoDB::Table", "Properties": props}, set()


def _cfn_template(rng, count: int, sam: bool) -> tuple[dict, set[str]]:
    resources: dict[str, dict] = {}
    rules: set[str] = set()
    for i in range(count):
        rid, body, fired = _cfn_resource(rng, i, sam)
        resources[rid] = body
        rules |= fired
    doc: dict = {"AWSTemplateFormatVersion": "2010-09-09",
                 "Parameters": {"Stage": {"Type": "String", "Default": "prod"}}}
    if sam:
        doc["Transform"] = "AWS::Serverless-2016-10-31"
    if rng.random() < 0.3:
        doc["Parameters"]["CorsAllowOrigin"] = {"Type": "String", "Default": "*"}
        rules.add("R-CORS")
    doc["Resources"] = resources
    return doc, rules


def _tf_template(rng, count: int) -> tuple[str, set[str]]:
    blocks = ['variable "region" {\n  default = "eu-west-1"\n}\n']
    rules: set[str] = set()
    for i in range(count):
        kind = rng.randrange(6)
        bad = rng.random() < 0.35
        if kind == 0:
            arn = "" if bad else f'  source_arn    = "arn:aws:s3:::bucket-{i}"\n'
            blocks.append(
                f'resource "aws_lambda_permission" "perm{i}" {{\n'
                f'  statement_id  = "AllowInvoke{i}"\n  action        = "lambda:InvokeFunction"\n'
                f'  function_name = aws_lambda_function.fn.function_name\n'
                f'  principal     = "s3.amazonaws.com"\n{arn}}}\n')
            rules |= {"R-ARN"} if bad else set()
        elif kind == 1:
            variant = rng.randrange(2) if bad else -1
            key = "" if variant == 0 else f'        kms_master_key_id = "arn:aws:kms:key/{i}"\n'
            acl = "public-read" if variant == 1 else "private"
            blocks.append(
                f'resource "aws_s3_bucket" "bucket{i}" {{\n  bucket = "bucket-{i}"\n'
                f'  acl    = "{acl}"\n  server_side_encryption_configuration {{\n'
                f'    rule {{\n      apply_server_side_encryption_by_default {{\n'
                f'        sse_algorithm = "aws:kms"\n{key}      }}\n    }}\n  }}\n}}\n')
            rules |= {"R-KMS"} if variant == 0 else {"IAC-S3-PUBLIC-ACL"} if variant == 1 else set()
        elif kind == 2:
            action = '"*"' if bad else '["s3:GetObject"]'
            blocks.append(
                f'resource "aws_iam_policy" "policy{i}" {{\n  name = "policy{i}"\n'
                f'  policy = {{\n    Version   = "2012-10-17"\n'
                f'    Statement = [{{ Effect = "Allow", Action = {action}, Resource = "*" }}]\n'
                f'  }}\n}}\n')
            rules |= {"IAC-IAM-WILDCARD-ACTION"} if bad else set()
        elif kind == 3:
            kms = "" if bad else f'  kms_key_arn   = "arn:aws:kms:key/{i}"\n'
            blocks.append(
                f'resource "aws_lambda_function" "fn{i}" {{\n  function_name = "fn{i}"\n'
                f'  handler       = "index.handler"\n  runtime       = "python3.12"\n'
                f'  role          = aws_iam_role.lambda.arn\n{kms}'
                f'  environment {{\n    variables = {{\n      STAGE = "prod"\n'
                f'      TABLE = "table{i}"\n    }}\n  }}\n}}\n')
            rules |= {"IAC-LAMBDA-ENV-NO-KMS"} if bad else set()
        elif kind == 4:
            log = "" if bad else (
                '  access_log_settings {\n    destination_arn = "arn:aws:logs:group"\n'
                '    format          = "json"\n  }\n')
            blocks.append(
                f'resource "aws_api_gateway_stage" "stage{i}" {{\n  stage_name    = "prod"\n'
                f'  rest_api_id   = aws_api_gateway_rest_api.api.id\n'
                f'  deployment_id = aws_api_gateway_deployment.d.id\n{log}}}\n')
            rules |= {"IAC-API-LOGGING-DISABLED"} if bad else set()
        else:
            origins = '["*"]' if bad else '["https://app.example.com"]'
            blocks.append(
                f'resource "aws_apigatewayv2_api" "http{i}" {{\n  name          = "http{i}"\n'
                f'  protocol_type = "HTTP"\n  cors_configuration {{\n'
                f'    allow_origins = {origins}\n  }}\n}}\n')
            rules |= {"R-CORS"} if bad else set()
    return "\n".join(blocks), rules


def build_artifacts(rng, corpus: Path, universe) -> dict[str, dict]:
    import yaml

    publishers = [_publisher(rng) for _ in range(ARTIFACT_COMPONENTS)]
    pairs = _unique_names(rng, ARTIFACT_COMPONENTS, set(), publishers)
    components: dict[str, dict] = {}
    for index, (publisher, name) in enumerate(pairs):
        slug = f"{publisher}__{name}"
        dest = corpus / slug
        _write(dest / "component.meta", _meta("github", publisher, name,
                                              github_url=f"https://github.com/{publisher}/{name}"))
        comp = _new_component("github", publisher, name)
        # V1: a large tree, one manifest set at the root and one per service.
        declared = _pick_declared(rng, universe, {"npm": 24, "pypi": 12, "gomod": 6, "os-packages": 8})
        for rel, text in _manifest_files(declared, rng).items():
            _write(dest / "tree" / rel, text)
        for svc in range(3):
            sub = _pick_declared(rng, universe, {"npm": 5, "pypi": 3})
            base = dest / "tree" / "services" / f"svc{svc}"
            for rel, text in _manifest_files(sub, rng).items():
                _write(base / rel, text)
            declared += sub
            for f in range(3):
                ext = rng.choice((".js", ".py", ".go", ".ts"))
                _write(base / "src" / f"mod{f}{ext}", _source_file(rng, declared, ext, 40))
            for f in range(12):
                _write(base / "docs" / f"page{f}.md", f"# page {f}\n" + "text\n" * (5 + 2 * f))
            _write(base / "config" / "settings.yml", f"service: svc{svc}\nmemory: 256\n")
        comp["declared"] = declared
        # V2
        files, comp["v2"]["signatures"], comp["v2"]["bombs"] = _archives(rng, index)
        for fname, data in files.items():
            _write(dest / "archives" / fname, data)
        # V3
        text, comp["v3"] = _run_commands(rng, publisher, name)
        _write(dest / "run_commands.txt", text)
        # V4: SAM (YAML), CloudFormation (JSON and YAML) and Terraform.
        v4: set[tuple[str, str]] = set()
        doc, rules = _cfn_template(rng, 12 + index % 7, sam=True)
        _write(dest / "iac" / "sam" / "template.yaml", yaml.safe_dump(doc, sort_keys=False))
        v4 |= {(r, "iac/sam/template.yaml") for r in rules}
        doc, rules = _cfn_template(rng, 18 - index % 7, sam=False)
        _write(dest / "iac" / "cfn" / "stack.json", json.dumps(doc, indent=2) + "\n")
        v4 |= {(r, "iac/cfn/stack.json") for r in rules}
        doc, rules = _cfn_template(rng, 8 + index % 5, sam=False)
        _write(dest / "iac" / "cfn" / "network.yaml", yaml.safe_dump(doc, sort_keys=False))
        v4 |= {(r, "iac/cfn/network.yaml") for r in rules}
        text, rules = _tf_template(rng, 12 + index % 7)
        _write(dest / "iac" / "tf" / "main.tf", text)
        v4 |= {(r, "iac/tf/main.tf") for r in rules}
        comp["v4"] = [list(x) for x in sorted(v4)]
        components[slug] = comp
    return components


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def generate(seed: int, workload: str, out: Path, db_dir: Path) -> None:
    """Write <out>/corpus and <out>/ledger.json, and db_dir if it is missing."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True)
    db = build_db(seed, db_dir)
    index = _advisory_index(db["docs"])
    rng = random.Random(f"{workload}:{seed}")
    corpus = out / "corpus"
    corpus.mkdir()
    if workload == "mixed":
        components = build_mixed(rng, corpus, db["universe"])
    elif workload == "names":
        components = build_names(rng, corpus)
    else:
        components = build_artifacts(rng, corpus, db["universe"])
    for comp in components.values():
        comp["matches"] = expected_matches(comp["declared"], index)
        comp["declared"] = [list(d) for d in comp["declared"]]
    ledger = {
        "seed": seed,
        "workload": workload,
        "advisories": len(db["docs"]),
        "components": components,
        "v5": v5_reference(components),
    }
    (out / "ledger.json").write_text(json.dumps(ledger, sort_keys=True), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--db", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.seed, args.workload, args.out, args.db)
    return 0


if __name__ == "__main__":
    sys.exit(main())
