"""Correctness checks on one emitted JSON report against the generator's ledger.

Every expectation comes from the ledger, which the generator computed with
its own version comparison and its own brute-force edit distance; nothing
here calls into slsa_audit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field


def _slug(component: dict) -> str:
    return f"{component['publisher']}__{component['name']}"


@dataclass
class Oracle:
    vuln_counts: dict[str, int] = field(default_factory=dict)
    v2: dict[str, set] = field(default_factory=dict)
    v3: dict[str, set] = field(default_factory=dict)
    v4: dict[str, set] = field(default_factory=dict)
    # V5: components allowed a finding, and record pairs that need one.
    near_owners: set = field(default_factory=set)
    near_pairs: list = field(default_factory=list)
    collision_owners: set = field(default_factory=set)
    collision_pairs: list = field(default_factory=list)

    @classmethod
    def from_ledger(cls, ledger: dict) -> "Oracle":
        oracle = cls()
        for slug, comp in ledger["components"].items():
            oracle.vuln_counts[slug] = len(comp["matches"])
            oracle.v2[slug] = {
                ("V2-SIGNATURE-MATCH", f"{archive}!{path}") for archive, path in comp["v2"]["signatures"]
            } | {("V2-UNSAFE-ARCHIVE", archive) for archive in comp["v2"]["bombs"]}
            oracle.v3[slug] = set(comp["v3"])
            oracle.v4[slug] = {tuple(x) for x in comp["v4"]}
        for _kind, _a, _b, owners_a, owners_b in ledger["v5"]["near_pairs"]:
            oracle.near_owners.update(owners_a)
            oracle.near_owners.update(owners_b)
            oracle.near_pairs.extend((oa, ob) for oa in owners_a for ob in owners_b)
        for _kind, _name, slug_a, slug_b in ledger["v5"]["collisions"]:
            oracle.collision_owners.update((slug_a, slug_b))
            oracle.collision_pairs.append((slug_a, slug_b))
        return oracle

    def check(self, body: bytes) -> list[str]:
        """Every mismatch between the report and the ledger; empty when correct."""
        doc = json.loads(body)
        problems: list[str] = []
        items = {_slug(item["component"]): item for item in doc["components"]}
        if set(items) != set(self.vuln_counts):
            missing = sorted(set(self.vuln_counts) - set(items))[:3]
            extra = sorted(set(items) - set(self.vuln_counts))[:3]
            problems.append(f"component set differs: missing {missing}, unexpected {extra}")
        near: set[str] = set()
        collided: set[str] = set()
        for slug, item in items.items():
            if slug not in self.vuln_counts:
                continue
            by_vector: dict[str, set] = {"V2": set(), "V3": set(), "V4": set()}
            for finding in item["findings"]:
                rule, vector, location = finding["rule_id"], finding["vector"], finding["location"]
                if vector == "V2":
                    by_vector["V2"].add((rule, location))
                elif vector == "V3":
                    by_vector["V3"].add(rule)
                elif vector == "V4":
                    by_vector["V4"].add((rule, location.split(":", 1)[0]))
                elif rule == "V5-NEAR-NAME":
                    near.add(slug)
                elif rule == "V5-NAME-COLLISION":
                    collided.add(slug)
            if item["vuln_count"] != self.vuln_counts[slug]:
                problems.append(
                    f"{slug}: vuln_count {item['vuln_count']} != ledger {self.vuln_counts[slug]}"
                )
            for vector, expected in (("V2", self.v2), ("V3", self.v3), ("V4", self.v4)):
                if by_vector[vector] != expected[slug]:
                    problems.append(
                        f"{slug}: {vector} {sorted(by_vector[vector])} != ledger {sorted(expected[slug])}"
                    )
        for slug in sorted(near - self.near_owners):
            problems.append(f"{slug}: V5-NEAR-NAME without a name at OSA distance 1")
        for slug in sorted(collided - self.collision_owners):
            problems.append(f"{slug}: V5-NAME-COLLISION without a cross-publisher twin")
        for a, b in self.near_pairs:
            if a not in near and b not in near:
                problems.append(f"near pair {a} / {b} has no V5-NEAR-NAME finding")
        for a, b in self.collision_pairs:
            if a not in collided and b not in collided:
                problems.append(f"collision {a} / {b} has no V5-NAME-COLLISION finding")
        return problems
