"""Acceptance suite: twelve timed criteria covering every analyzer.

Each test prints one PASS line with its elapsed time (visible with -s);
a failed assertion or a blown time budget fails the criterion.
"""
from __future__ import annotations

import itertools
import json
import random
import string
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from slsa_audit import archive as archive_mod
from slsa_audit import dockerlint, iaclint, typosquat, vulnscan
from slsa_audit.archive import (
    BUILTIN_SIGNATURES,
    EICAR_TEST_STRING,
    ArchiveFormat,
    ArchiveSecurityError,
    DecompressionBombError,
    EngineVerdict,
    ExtractionLimits,
    consensus_flag,
    extract_bytes,
    inject_and_pack,
    pack_entries,
    scan_entries,
)
from slsa_audit.cli import main as cli_main
from slsa_audit.demo import build_demo_corpus, build_demo_db
from slsa_audit.model import (
    ComponentRef,
    Repository,
    Severity,
    cdf_of_counts,
    severity_band,
    summarize_counts,
)
from near_pair_oracle import all_pairs_oracle


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    status = "PASS" if elapsed < budget_seconds else "FAIL"
    print(f"{status} criterion {number} ({elapsed:.2f}s / budget {budget_seconds:.0f}s): {description}")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


# ---------------------------------------------------------------------------
# 1. Severity banding
# ---------------------------------------------------------------------------


def test_criterion_01_severity_banding():
    with criterion(1, "severity banding boundaries and 0.1-step sweep", 1.0):
        boundaries = {
            0.1: Severity.LOW, 3.9: Severity.LOW,
            4.0: Severity.MEDIUM, 6.9: Severity.MEDIUM,
            7.0: Severity.HIGH, 8.9: Severity.HIGH,
            9.0: Severity.CRITICAL, 10.0: Severity.CRITICAL,
        }
        for score, expected in boundaries.items():
            assert severity_band(score) is expected, score
        score = 0.0
        seen = set()
        for step in range(101):
            band = severity_band(round(step * 0.1, 1))
            seen.add(band)
            score += 0.1
        assert seen == set(Severity)


# ---------------------------------------------------------------------------
# 2. Advisory matching vs brute force
# ---------------------------------------------------------------------------


def _random_matching_instance(rng: random.Random):
    inventory = vulnscan.PackageInventory()
    names = [f"pkg{i}" for i in range(rng.randint(1, 20))]
    ecosystems = list(vulnscan.Ecosystem)
    for name in names:
        eco = rng.choice(ecosystems)
        for _ in range(rng.randint(1, 2)):
            inventory.add(
                name,
                f"{rng.randint(0, 3)}.{rng.randint(0, 9)}.{rng.randint(0, 9)}",
                eco,
                "manifest",
            )
    advisories = []
    for i in range(rng.randint(0, 50)):
        low = f"{rng.randint(0, 2)}.{rng.randint(0, 9)}.0"
        high = f"{rng.randint(2, 4)}.{rng.randint(0, 9)}.0"
        if vulnscan.parse_version(high) < vulnscan.parse_version(low):
            low, high = high, low
        advisories.append(
            vulnscan.Advisory(
                id=f"ADV-{i}",
                ecosystem=rng.choice(ecosystems),
                package_name=rng.choice(names),
                affected=(vulnscan.VersionInterval(low=low, high=high),),
                cvss_score=round(rng.uniform(0.1, 10.0), 1),
            )
        )
    return inventory, advisories


def test_criterion_02_matching_oracle():
    with criterion(2, "match_advisories equals brute-force double loop (200 instances)", 10.0):
        rng = random.Random(2024)
        for _ in range(200):
            inventory, advisories = _random_matching_instance(rng)
            got = {
                (m.advisory_id, m.package_name, m.package_version, m.ecosystem)
                for m in vulnscan.match_advisories(
                    inventory, vulnscan.index_advisories(advisories), []
                )
            }
            expected = set()
            for record in inventory.packages.values():
                for advisory in advisories:
                    if (
                        advisory.ecosystem is record.ecosystem
                        and advisory.package_name == record.name
                    ):
                        for version in record.versions:
                            parsed = vulnscan.parse_version(version)
                            if any(iv.contains(parsed) for iv in advisory.affected):
                                expected.add(
                                    (advisory.id, record.name, version, record.ecosystem)
                                )
            assert got == expected


# ---------------------------------------------------------------------------
# 3. False-positive rate arithmetic
# ---------------------------------------------------------------------------


def _vuln_match(fp: vulnscan.FpClass, index: int) -> vulnscan.VulnMatch:
    return vulnscan.VulnMatch(
        advisory_id=f"A-{index}",
        package_name=f"p{index}",
        package_version="1.0.0",
        ecosystem=vulnscan.Ecosystem.NPM,
        severity=Severity.HIGH,
        fp_class=fp,
    )


def test_criterion_03_fp_rate():
    with criterion(3, "fp_rate 142/1417 = 0.1002 and partition on 1000 fixtures", 5.0):
        matches = [_vuln_match(vulnscan.FpClass.METADATA_ONLY, i) for i in range(142)]
        matches += [
            _vuln_match(vulnscan.FpClass.SOURCE_REFERENCED, 1000 + i) for i in range(1275)
        ]
        assert len(matches) == 1417
        result = vulnscan.filter_false_positives(matches)
        assert abs(result.fp_rate - 0.1002) <= 0.0001
        rng = random.Random(3)
        for _ in range(1000):
            sample = [
                _vuln_match(
                    rng.choice([vulnscan.FpClass.METADATA_ONLY, vulnscan.FpClass.SOURCE_REFERENCED]),
                    i,
                )
                for i in range(rng.randint(0, 25))
            ]
            partition = vulnscan.filter_false_positives(sample)
            assert len(partition.kept) + len(partition.suspected_fp) == len(sample)
            assert all(m.fp_class is vulnscan.FpClass.METADATA_ONLY for m in partition.suspected_fp)
            assert all(m.fp_class is vulnscan.FpClass.SOURCE_REFERENCED for m in partition.kept)
            assert 0.0 <= partition.fp_rate <= 1.0


# ---------------------------------------------------------------------------
# 4. Jaccard similarity
# ---------------------------------------------------------------------------


def test_criterion_04_jaccard():
    with criterion(4, "jaccard conventions plus 500 random pairs vs oracle", 2.0):
        assert vulnscan.jaccard_similarity(set(), set()) == 1.0
        assert vulnscan.jaccard_similarity({"A", "B"}, {"B", "C"}) == 1 / 3
        rng = random.Random(4)
        universe = [f"CVE-{i}" for i in range(30)]
        for _ in range(500):
            set_a = {x for x in universe if rng.random() < 0.3}
            set_b = {x for x in universe if rng.random() < 0.3}
            got = vulnscan.jaccard_similarity(set_a, set_b)
            assert got == vulnscan.jaccard_similarity(set_b, set_a)
            intersection = sum(1 for x in universe if x in set_a and x in set_b)
            union = sum(1 for x in universe if x in set_a or x in set_b)
            expected = 1.0 if union == 0 else intersection / union
            assert got == expected


# ---------------------------------------------------------------------------
# 5. Archive round-trip and format-invariant detection
# ---------------------------------------------------------------------------


def test_criterion_05_archive_roundtrip_evasion(tmp_path):
    with criterion(5, "8-format round-trip, format-invariant EICAR detection, rejects", 30.0):
        tree = tmp_path / "benign"
        (tree / "lib").mkdir(parents=True)
        (tree / "main.py").write_bytes(b"print('serverless')\n")
        (tree / "lib" / "util.py").write_bytes(b"def add(a, b):\n    return a + b\n")
        (tree / "package.json").write_bytes(b"{}\n")
        payload = tmp_path / "eicar.txt"
        payload.write_bytes(EICAR_TEST_STRING)
        original = sorted(
            (p.relative_to(tree).as_posix(), p.read_bytes())
            for p in tree.rglob("*") if p.is_file()
        )
        for fmt in ArchiveFormat:
            packed = inject_and_pack(tree, None, fmt)
            extracted = sorted((e.path, e.data) for e in extract_bytes(packed, fmt))
            assert extracted == original, fmt
            injected = inject_and_pack(tree, payload, fmt)
            entries = extract_bytes(injected, fmt)
            assert len(entries) == 4
            matches = scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=0, notices=[])
            assert any(m.signature_id == "eicar" for m in matches), fmt
        # Hostile fixtures are rejected regardless of format.
        import io
        import tarfile

        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tar:
            info = tarfile.TarInfo(name="../../etc/passwd")
            info.size = 1
            tar.addfile(info, io.BytesIO(b"x"))
        with pytest.raises(ArchiveSecurityError):
            extract_bytes(buf.getvalue(), ArchiveFormat.TAR)
        bomb = pack_entries([("zeros", bytes(1 << 22))], ArchiveFormat.ZIP)
        with pytest.raises(DecompressionBombError):
            extract_bytes(bomb, ArchiveFormat.ZIP, ExtractionLimits(max_expansion_ratio=100.0))


# ---------------------------------------------------------------------------
# 6. Consensus threshold
# ---------------------------------------------------------------------------


def test_criterion_06_consensus():
    with criterion(6, "consensus: 4-of-N clean, 5-of-N malicious at threshold 5", 1.0):
        clean = [EngineVerdict(f"c{i}", False) for i in range(15)]
        four = [EngineVerdict(f"e{i}", True, ("sig",)) for i in range(4)]
        verdict = consensus_flag(four + clean, 5)
        assert not verdict.malicious and verdict.engines_flagging == 4
        five = four + [EngineVerdict("e4", True, ("sig",))]
        verdict = consensus_flag(five + clean, 5)
        assert verdict.malicious and verdict.engines_flagging == 5


# ---------------------------------------------------------------------------
# 7. Docker golden listings + redaction
# ---------------------------------------------------------------------------

GOLDEN_INLINE = (
    "docker run -d --name go-serverless-aws-container "
    "-v $PWD:/usr/src/go/src "
    "-e AWS_KEY=JFHGUFJAKEXAMPLEJDFJHEKF "
    "-e AWS_SECRET=AJDFUEXAMPLESDLKF "
    "-e AWS_REGION=us-east "
    "iamfrisbee/go-serverless-aws"
)
GOLDEN_PASSTHROUGH = (
    "docker run -v $(pwd):/opt/app "
    "-e AWS_DEFAULT_REGION -e AWS_ACCESS_KEY_ID -e AWS_SECRET_ACCESS_KEY "
    "andrewoh531/docker-serverless serverless deploy"
)
GOLDEN_SOCKET = (
    "docker run -p 8080:8080 -v /var/run/docker.sock:/var/run/docker.sock "
    "furikuri/serverless-to-go"
)


def test_criterion_07_docker_golden():
    with criterion(7, "docker listings yield expected multisets; redaction on 1000 secrets", 5.0):
        expectations = {
            GOLDEN_INLINE: {"V3-HARDCODED-CREDENTIAL": 2, "V3-HOST-MOUNT": 1},
            GOLDEN_PASSTHROUGH: {"V3-SENSITIVE-ENV": 2, "V3-HOST-MOUNT": 1},
            GOLDEN_SOCKET: {"V3-DOCKER-SOCK": 1},
        }
        for command, expected in expectations.items():
            findings = dockerlint.check_sensitive(dockerlint.parse_run_command(command))
            assert Counter(f.rule_id for f in findings) == expected, command
        rng = random.Random(7)
        alphabet = string.ascii_letters + string.digits + "-_+=/:."
        for _ in range(1000):
            secret = "".join(rng.choices(alphabet, k=rng.randint(16, 40)))
            command = f"docker run -e AWS_SECRET_ACCESS_KEY={secret} img"
            findings = dockerlint.check_sensitive(dockerlint.parse_run_command(command))
            for finding in findings:
                for length in range(5, len(secret) + 1):
                    for start in range(len(secret) - length + 1):
                        assert secret[start : start + length] not in finding.evidence


# ---------------------------------------------------------------------------
# 8. IaC classification
# ---------------------------------------------------------------------------


def _classification_fixtures() -> list[tuple[str, str, iaclint.IaCFramework]]:
    fixtures = []
    for i in range(10):
        fixtures.append(
            (
                f"tf_{i}.tf",
                f'resource "aws_s3_bucket" "b{i}" {{\n  bucket = "bucket-{i}"\n}}\n',
                iaclint.IaCFramework.TERRAFORM,
            )
        )
    for i in range(10):
        body = {"Resources": {f"Topic{i}": {"Type": "AWS::SNS::Topic"}}}
        name = f"cfn_{i}.json" if i % 2 else f"cfn_{i}.yaml"
        text = json.dumps(body) if name.endswith(".json") else f"Resources:\n  Topic{i}:\n    Type: AWS::SNS::Topic\n"
        fixtures.append((name, text, iaclint.IaCFramework.CLOUDFORMATION))
    for i in range(10):
        # Differs from the matching CloudFormation fixture only by Transform.
        text = (
            f"Transform: {iaclint.SAM_TRANSFORM}\n"
            f"Resources:\n  Topic{i}:\n    Type: AWS::SNS::Topic\n"
        )
        fixtures.append((f"sam_{i}.yaml", text, iaclint.IaCFramework.SAM))
    return fixtures


def test_criterion_08_iac_classification():
    with criterion(8, "30-template classification at 100% with key-order permutations", 5.0):
        fixtures = _classification_fixtures()
        assert len(fixtures) == 30
        correct = 0
        for name, text, expected in fixtures:
            if iaclint.load_template(name, text).framework is expected:
                correct += 1
        assert correct == 30
        base = {
            "Transform": iaclint.SAM_TRANSFORM,
            "Parameters": {"P": {"Type": "String"}},
            "Resources": {"Fn": {"Type": "AWS::Serverless::Function"}},
        }
        for permutation in itertools.permutations(base):
            doc = json.dumps({key: base[key] for key in permutation})
            assert iaclint.load_template("t.json", doc).framework is iaclint.IaCFramework.SAM


# ---------------------------------------------------------------------------
# 9. IaC golden rules
# ---------------------------------------------------------------------------


def test_criterion_09_iac_rules():
    with criterion(9, "R-ARN / R-KMS / R-CORS fire exactly once; negations silent", 5.0):
        arn_bad = (
            "Resources:\n  Permit:\n    Type: AWS::Lambda::Permission\n"
            "    Properties:\n      Action: lambda:InvokeFunction\n"
            "      FunctionName: fn\n      Principal: s3.amazonaws.com\n"
        )
        arn_good = arn_bad + "      SourceArn: arn:aws:s3:::bucket\n"
        kms_bad = (
            "Resources:\n  Bucket:\n    Type: AWS::S3::Bucket\n    Properties:\n"
            "      BucketEncryption:\n        ServerSideEncryptionConfiguration:\n"
            "          - ServerSideEncryptionByDefault:\n              SSEAlgorithm: aws:kms\n"
        )
        kms_good = kms_bad + "              KMSMasterKeyID: arn:aws:kms:::key/1\n"
        cors_bad = (
            f"Transform: {iaclint.SAM_TRANSFORM}\n"
            "Parameters:\n  CorsOrigin:\n    Type: String\n    Default: '*'\n"
            "Resources:\n  Api:\n    Type: AWS::Serverless::Api\n"
            "    Properties:\n      StageName: prod\n"
        )
        cors_auth = cors_bad + "      Auth:\n        DefaultAuthorizer: Cognito\n"
        cors_good = cors_bad.replace("Default: '*'", "Default: 'https://app.example.com'")

        def rule_hits(doc: str, framework: iaclint.IaCFramework, rule_id: str) -> list:
            model = iaclint.load_template("fixture.yaml", doc)
            assert model.framework is framework
            if rule_id == "R-CORS":
                found = iaclint.check_cors_wildcard(model)
            else:
                found = iaclint.run_rules(model, notices=[])
            return [f for f in found if f.rule_id == rule_id]

        cfn = iaclint.IaCFramework.CLOUDFORMATION
        sam = iaclint.IaCFramework.SAM
        assert len(rule_hits(arn_bad, cfn, "R-ARN")) == 1
        assert rule_hits(arn_good, cfn, "R-ARN") == []
        assert len(rule_hits(kms_bad, cfn, "R-KMS")) == 1
        assert rule_hits(kms_good, cfn, "R-KMS") == []
        high = rule_hits(cors_bad, sam, "R-CORS")
        assert len(high) == 1 and high[0].severity is Severity.HIGH
        low = rule_hits(cors_auth, sam, "R-CORS")
        assert len(low) == 1 and low[0].severity is Severity.LOW
        assert rule_hits(cors_good, sam, "R-CORS") == []


# ---------------------------------------------------------------------------
# 10. DL distance exhaustive oracle
# ---------------------------------------------------------------------------


def _osa_reference(a: str, b: str) -> int:
    m, n = len(a), len(b)
    memo = [[-1] * (n + 1) for _ in range(m + 1)]

    def rec(i: int, j: int) -> int:
        cached = memo[i][j]
        if cached >= 0:
            return cached
        if i == 0:
            value = j
        elif j == 0:
            value = i
        else:
            cost = 0 if a[i - 1] == b[j - 1] else 1
            value = min(rec(i - 1, j) + 1, rec(i, j - 1) + 1, rec(i - 1, j - 1) + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                transposed = rec(i - 2, j - 2) + 1
                if transposed < value:
                    value = transposed
        memo[i][j] = value
        return value

    return rec(m, n)


def test_criterion_10_dl_exhaustive_oracle():
    with criterion(10, "OSA equals recursive definition for all pairs len<=6 over {a,b,c}", 60.0):
        assert typosquat.dl_distance("ca", "abc") == 3
        assert typosquat.dl_distance("ab", "ba") == 1
        assert typosquat.dl_distance("lodash", "lodahs") == 1
        strings = [""]
        for length in range(1, 7):
            strings += ["".join(p) for p in itertools.product("abc", repeat=length)]
        assert len(strings) == 1093  # 1093^2 ordered pairs ~ 1.19M
        dl = typosquat.dl_distance
        mismatches = 0
        for i, a in enumerate(strings):
            for j in range(i, len(strings)):
                b = strings[j]
                expected = _osa_reference(a, b)
                if dl(a, b) != expected or dl(b, a) != expected:
                    mismatches += 1
        assert mismatches == 0


# ---------------------------------------------------------------------------
# 11. Near-pair soundness
# ---------------------------------------------------------------------------


def test_criterion_11_index_soundness():
    with criterion(11, "near pairs equal an all-pairs OSA oracle on 50 corpora", 60.0):
        rng = random.Random(11)
        sizes = [rng.randint(20, 150) for _ in range(40)]
        sizes += [rng.randint(150, 350) for _ in range(8)]
        sizes += [500, 500]
        assert len(sizes) == 50
        for index, size in enumerate(sizes):
            names = [
                "".join(rng.choices("abcdefgh", k=rng.randint(3, 9))) for _ in range(size)
            ]
            records = [
                typosquat.NameRecord(
                    name,
                    typosquat.NameKind.IMAGE_NAME,
                    ComponentRef(Repository.DOCKER_HUB, f"p{i}", f"n{i}"),
                )
                for i, name in enumerate(names)
            ]
            max_distance = 1 + index % 2
            scan = typosquat.find_near_pairs(records, max_distance)
            pairs, collisions = all_pairs_oracle(records, max_distance)
            assert Counter((p.a, p.b, p.distance) for p in scan.pairs) == pairs
            assert Counter((p.a, p.b, p.distance) for p in scan.collisions) == collisions
            assert scan.pairs == sorted(scan.pairs, key=typosquat.NearPair.sort_key)
            assert scan.collisions == sorted(scan.collisions, key=typosquat.NearPair.sort_key)


# ---------------------------------------------------------------------------
# 12. Statistics consistency and byte-stable scan-all
# ---------------------------------------------------------------------------


def test_criterion_12_statistics_and_determinism(tmp_path, capsys):
    with criterion(12, "stats vs reimplementation; report round-trip; byte-stable scan-all", 30.0):
        import math

        rng = random.Random(12)
        for _ in range(1000):
            counts = [rng.randint(0, 500) for _ in range(rng.randint(1, 40))]
            stats = summarize_counts(counts)
            mean = sum(counts) / len(counts)
            ordered = sorted(counts)
            mid = len(ordered) // 2
            if len(ordered) % 2:
                median = float(ordered[mid])
            else:
                median = (ordered[mid - 1] + ordered[mid]) / 2
            variance = sum((c - mean) ** 2 for c in counts) / len(counts)
            assert math.isclose(stats.mean, mean)
            assert math.isclose(stats.median, median)
            assert stats.min == min(counts) and stats.max == max(counts)
            assert math.isclose(stats.stddev, math.sqrt(variance), abs_tol=1e-9)
            thresholds = sorted(rng.sample(range(0, 600), k=rng.randint(1, 6)))
            for threshold, fraction in cdf_of_counts(counts, thresholds):
                expected = sum(1 for c in counts if c <= threshold) / len(counts)
                assert math.isclose(fraction, expected)

        corpus = build_demo_corpus(tmp_path / "corpus")
        db = build_demo_db(tmp_path / "db")
        argv = ["--output", "json", "scan-all", "--corpus", str(corpus), "--db", str(db)]
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second and first

        from slsa_audit.report import emit, parse_report

        report = parse_report(first)
        assert emit(report, "json").decode() == first
        assert len(json.loads(first)["components"]) == 12
