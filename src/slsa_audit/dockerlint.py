"""Docker run command parsing and sensitive-parameter linting (V3).

Execution instructions are split into logical ``docker run`` commands,
parsed into a structured spec, and checked against six rule classes:
host mounts, privileged mode, host PID namespace, Docker socket mounts,
sensitive environment variables, and hard-coded credentials.
"""
from __future__ import annotations

import math
import re
import shlex
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from slsa_audit.model import (
    AttackVector,
    AuditError,
    ComponentRef,
    ConfigError,
    Finding,
    Repository,
    Severity,
    list_setting,
    read_settings_file,
)


class CommandParseError(AuditError, ValueError):
    """Tokenization failed; column points at the offending quote."""

    def __init__(self, message: str, column: int | None = None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


class IncompleteCommandError(AuditError, ValueError):
    """The command has options but no image."""


@dataclass(frozen=True)
class VolumeMount:
    source: str
    destination: str
    options: str | None = None


@dataclass(frozen=True)
class EnvVar:
    key: str
    value: str | None = None  # None = host-environment passthrough


@dataclass
class DockerRunSpec:
    """Structured view of one docker run command.

    raw_tokens holds the full token sequence, so joining it reproduces the
    tokenized input; unknown flags live only there.
    """

    image: str
    detach: bool = False
    name: str | None = None
    volumes: list[VolumeMount] = field(default_factory=list)
    env: list[EnvVar] = field(default_factory=list)
    ports: list[str] = field(default_factory=list)
    privileged: bool = False
    pid_mode: str | None = None
    raw_tokens: list[str] = field(default_factory=list)


def split_commands(text: str) -> list[str]:
    """Reassemble backslash-continued lines and keep only docker run commands.

    A leading ``sudo`` is accepted and stripped. Backslash-newline pairs are
    removed without inserting whitespace, matching shell behaviour.
    """
    logical: list[str] = []
    pending = ""
    for line in text.splitlines():
        if line.endswith("\\"):
            pending += line[:-1]
            continue
        pending += line
        logical.append(pending)
        pending = ""
    if pending:
        logical.append(pending)
    commands: list[str] = []
    for line in logical:
        stripped = line.strip()
        tokens = stripped.split()
        if tokens[:1] == ["sudo"]:
            tokens = tokens[1:]
            stripped = stripped.split(None, 1)[1] if len(stripped.split(None, 1)) > 1 else ""
        if tokens[:2] == ["docker", "run"]:
            commands.append(stripped)
    return commands


def _unterminated_quote_column(command: str) -> int | None:
    quote = None
    start = None
    index = 0
    while index < len(command):
        char = command[index]
        if quote is None:
            if char in "'\"":
                quote, start = char, index
            elif char == "\\":
                index += 1
        elif char == quote:
            quote = None
        elif quote == '"' and char == "\\":
            index += 1
        index += 1
    return None if quote is None else (start or 0) + 1


# Flags that consume a following value token. Unknown flags are assumed
# boolean so the image token stays unambiguous.
_VALUE_FLAGS = {
    "-v", "--volume", "--mount",
    "-e", "--env", "--env-file",
    "-p", "--publish", "--expose",
    "--name", "--pid", "--network", "--net", "--ipc", "--uts", "--userns",
    "-u", "--user", "-w", "--workdir", "--entrypoint", "--platform",
    "-l", "--label", "--label-file", "--add-host", "--dns", "--dns-search",
    "--dns-option", "-h", "--hostname", "--ip", "--ip6", "--mac-address",
    "-m", "--memory", "--memory-swap", "--memory-reservation", "--cpus",
    "--cpu-shares", "--cpuset-cpus", "--gpus", "--shm-size", "--restart",
    "--stop-signal", "--stop-timeout", "--tmpfs", "--volumes-from",
    "--cap-add", "--cap-drop", "--device", "--security-opt", "--group-add",
    "--log-driver", "--log-opt", "--health-cmd", "--health-interval",
    "--ulimit", "--pull", "--cidfile", "--secret",
}

_BOOLEAN_FLAGS = {
    "-d", "--detach", "--privileged", "--rm", "-i", "--interactive",
    "-t", "--tty", "-P", "--publish-all", "--init", "--read-only",
    "--no-healthcheck", "--oom-kill-disable", "-q", "--quiet", "--help",
    "--sig-proxy", "--disable-content-trust",
}


# Without quotes and escapes, shlex.split in POSIX mode splits at its four
# whitespace characters and nowhere else (it keeps \x0b, \xa0 and the like
# inside tokens), which one regular expression does faster.
_SHLEX_SPECIAL = re.compile(r"['\"\\]")
_SHLEX_WORD = re.compile(r"[^ \t\r\n]+")


def parse_run_command(command: str) -> DockerRunSpec:
    """Parse a docker run command into a :class:`DockerRunSpec`.

    Quotes are honoured; ``$VAR`` and ``$(cmd)`` tokens are kept verbatim.
    Unknown flags never fail the parse.
    """
    try:
        tokens = (
            shlex.split(command, posix=True) if _SHLEX_SPECIAL.search(command)
            else _SHLEX_WORD.findall(command)
        )
    except ValueError as exc:
        raise CommandParseError(
            f"cannot tokenize command: {exc}", column=_unterminated_quote_column(command)
        ) from exc
    if tokens[:2] != ["docker", "run"]:
        raise CommandParseError("command must begin with 'docker run'")
    spec = DockerRunSpec(image="", raw_tokens=list(tokens))
    index = 2
    image_index = None
    while index < len(tokens):
        token = tokens[index]
        if token == "--":
            image_index = index + 1
            break
        if token.startswith("--"):
            flag, eq, inline = token.partition("=")
            value: str | None = inline if eq else None
            if value is None and flag in _VALUE_FLAGS:
                index += 1
                value = tokens[index] if index < len(tokens) else None
            _apply_flag(spec, flag, value)
        elif token.startswith("-") and len(token) > 1:
            flag, eq, inline = token.partition("=")
            value = inline if eq else None
            if flag in _VALUE_FLAGS:
                if value is None:
                    index += 1
                    value = tokens[index] if index < len(tokens) else None
                _apply_flag(spec, flag, value)
            elif flag in _BOOLEAN_FLAGS:
                _apply_flag(spec, flag, None)
            else:
                # Short-flag cluster such as -dit; unknown letters are kept
                # only in raw_tokens.
                for letter in flag[1:]:
                    if f"-{letter}" in _BOOLEAN_FLAGS:
                        _apply_flag(spec, f"-{letter}", None)
        else:
            image_index = index
            break
        index += 1
    if image_index is None or image_index >= len(tokens):
        raise IncompleteCommandError("docker run command has no image")
    spec.image = tokens[image_index]
    return spec


def _apply_flag(spec: DockerRunSpec, flag: str, value: str | None) -> None:
    enabled = value is None or value.lower() not in ("false", "0", "no")
    if flag in ("-d", "--detach"):
        spec.detach = enabled
    elif flag == "--privileged":
        spec.privileged = enabled
    elif flag == "--name" and value:
        spec.name = value
    elif flag == "--pid" and value:
        spec.pid_mode = value
    elif flag in ("-v", "--volume") and value:
        parts = value.split(":")
        if len(parts) == 1:
            spec.volumes.append(VolumeMount(source="", destination=parts[0]))
        else:
            options = ":".join(parts[2:]) or None
            spec.volumes.append(VolumeMount(source=parts[0], destination=parts[1], options=options))
    elif flag in ("-e", "--env") and value:
        key, eq, val = value.partition("=")
        spec.env.append(EnvVar(key=key, value=val if eq else None))
    elif flag in ("-p", "--publish") and value:
        spec.ports.append(value)


# ---------------------------------------------------------------------------
# Sensitive-parameter rules
# ---------------------------------------------------------------------------


class ParamClass(Enum):
    HOST_MOUNT = "HostMount"
    PRIVILEGED = "Privileged"
    PID_HOST = "PidHost"
    HARDCODED_CREDENTIAL = "HardcodedCredential"
    SENSITIVE_ENV_VAR = "SensitiveEnvVar"
    DOCKER_SOCK_MOUNT = "DockerSockMount"


@dataclass(frozen=True)
class SensitiveParamRule:
    rule_id: str
    param_class: ParamClass
    severity: Severity
    description: str
    remediation: str = ""


DEFAULT_RULES: dict[ParamClass, SensitiveParamRule] = {
    ParamClass.HOST_MOUNT: SensitiveParamRule(
        "V3-HOST-MOUNT", ParamClass.HOST_MOUNT, Severity.MEDIUM,
        "bind-mounts a host directory into the container",
        "mount a named volume or narrow the bind to the specific files needed",
    ),
    ParamClass.PRIVILEGED: SensitiveParamRule(
        "V3-PRIVILEGED", ParamClass.PRIVILEGED, Severity.CRITICAL,
        "container runs privileged, with all capabilities and host device access",
        "drop --privileged; grant individual capabilities with --cap-add instead",
    ),
    ParamClass.PID_HOST: SensitiveParamRule(
        "V3-PID-HOST", ParamClass.PID_HOST, Severity.HIGH,
        "container shares the host PID namespace and can observe or signal host processes",
        "remove --pid=host",
    ),
    ParamClass.DOCKER_SOCK_MOUNT: SensitiveParamRule(
        "V3-DOCKER-SOCK", ParamClass.DOCKER_SOCK_MOUNT, Severity.CRITICAL,
        "mounting the Docker daemon socket hands the container control of the daemon and the host",
        "talk to the daemon through a scoped proxy instead of mounting the socket",
    ),
    ParamClass.SENSITIVE_ENV_VAR: SensitiveParamRule(
        "V3-SENSITIVE-ENV", ParamClass.SENSITIVE_ENV_VAR, Severity.HIGH,
        "credential-style variable passed through the container environment",
        "use docker secrets or a mounted credentials file instead of -e",
    ),
    ParamClass.HARDCODED_CREDENTIAL: SensitiveParamRule(
        "V3-HARDCODED-CREDENTIAL", ParamClass.HARDCODED_CREDENTIAL, Severity.CRITICAL,
        "credential value embedded directly in the run command",
        "remove the literal value; use docker secrets and rotate the exposed credential",
    ),
}

SENSITIVE_KEY_PATTERNS = (
    "SECRET", "TOKEN", "PASSWORD", "PASSWD",
    "ACCESS_KEY", "API_KEY", "PRIVATE_KEY", "CREDENTIAL",
)
SENSITIVE_KEYS_EXACT = (
    "AWS_ACCESS_KEY_ID", "AWS_SECRET_ACCESS_KEY", "AWS_SESSION_TOKEN",
    "AWS_KEY", "AWS_SECRET",
)

_AKIA_RE = re.compile(r"\bAKIA[A-Z0-9]{16}\b")

MIN_CREDENTIAL_LENGTH = 16
ENTROPY_THRESHOLD_BITS = 3.5


@dataclass(frozen=True)
class SensitiveKeyConfig:
    patterns: tuple[str, ...] = SENSITIVE_KEY_PATTERNS
    exact: tuple[str, ...] = SENSITIVE_KEYS_EXACT
    min_value_length: int = MIN_CREDENTIAL_LENGTH
    entropy_threshold: float = ENTROPY_THRESHOLD_BITS

    def is_sensitive(self, key: str) -> bool:
        upper = key.upper()
        return upper in self.exact or any(p in upper for p in self.patterns)


DEFAULT_KEY_CONFIG = SensitiveKeyConfig()


def value_entropy_bits(value: str) -> float:
    """Per-character Shannon entropy with the Miller-Madow bias correction.

    The plug-in estimator systematically under-measures short strings, so
    credential-length values need the corrected form to band correctly.
    """
    n = len(value)
    if n == 0:
        return 0.0
    counts = Counter(value)
    plain = -sum((c / n) * math.log2(c / n) for c in counts.values())
    return plain + (len(counts) - 1) / (2 * n * math.log(2))


def redact(value: str) -> str:
    """First four characters plus an ellipsis; safe to place in evidence."""
    return value[:4] + "…"


def _is_host_path(source: str) -> bool:
    if source.startswith("/"):
        return True
    return source in ("$PWD", "${PWD}", "$(pwd)") or source.startswith(
        ("$PWD/", "${PWD}/", "$(pwd)/")
    )


_FALLBACK_COMPONENT = ComponentRef(Repository.LOCAL_CORPUS, "adhoc", "command-line")


def check_sensitive(
    spec: DockerRunSpec,
    rules: dict[ParamClass, SensitiveParamRule] | None = None,
    key_config: SensitiveKeyConfig = DEFAULT_KEY_CONFIG,
    component: ComponentRef | None = None,
    location: str = "run_commands.txt#1",
) -> list[Finding]:
    """Evaluate all six sensitive-parameter classes against one command.

    Docker-socket mounts suppress the generic host-mount finding for that
    volume; a hard-coded credential on a key suppresses the plain
    sensitive-variable finding for the same key.
    """
    rules = rules or DEFAULT_RULES
    component = component or _FALLBACK_COMPONENT
    findings: list[Finding] = []

    def emit(param_class: ParamClass, evidence: str) -> None:
        rule = rules.get(param_class)
        if rule is None:
            return
        findings.append(
            Finding(
                rule_id=rule.rule_id,
                vector=AttackVector.V3,
                severity=rule.severity,
                component=component,
                location=location,
                evidence=f"{evidence}: {rule.description}",
                remediation=rule.remediation,
            )
        )

    for volume in spec.volumes:
        if volume.source == "/var/run/docker.sock":
            emit(ParamClass.DOCKER_SOCK_MOUNT, f"-v {volume.source}:{volume.destination}")
        elif _is_host_path(volume.source):
            emit(ParamClass.HOST_MOUNT, f"-v {volume.source}:{volume.destination}")

    if spec.privileged:
        emit(ParamClass.PRIVILEGED, "--privileged")
    if spec.pid_mode == "host":
        emit(ParamClass.PID_HOST, "--pid=host")

    credentialed_keys: set[str] = set()
    seen_values: set[str] = set()
    for env in spec.env:
        value = env.value
        if value:
            hardcoded = bool(_AKIA_RE.search(value))
            if (
                not hardcoded
                and key_config.is_sensitive(env.key)
                and len(value) >= key_config.min_value_length
                and value_entropy_bits(value) >= key_config.entropy_threshold
            ):
                hardcoded = True
            if hardcoded:
                credentialed_keys.add(env.key)
                seen_values.add(value)
                emit(ParamClass.HARDCODED_CREDENTIAL, f"-e {env.key}={redact(value)}")
    for env in spec.env:
        if env.key in credentialed_keys:
            continue
        if key_config.is_sensitive(env.key):
            emit(ParamClass.SENSITIVE_ENV_VAR, f"-e {env.key}")

    # Access-key-shaped strings anywhere else in the command line.
    for token in spec.raw_tokens:
        for match in _AKIA_RE.finditer(token):
            value = match.group(0)
            if value in seen_values or any(value in (v or "") for v in seen_values):
                continue
            if any(env.value == value or (env.value or "").find(value) >= 0 for env in spec.env):
                continue
            seen_values.add(value)
            emit(ParamClass.HARDCODED_CREDENTIAL, f"token {redact(value)}")

    return findings


def lint_commands_text(
    text: str,
    component: ComponentRef | None = None,
    source_name: str = "run_commands.txt",
    rules: dict[ParamClass, SensitiveParamRule] | None = None,
    key_config: SensitiveKeyConfig = DEFAULT_KEY_CONFIG,
    *,
    notices: list[str],
) -> list[Finding]:
    """Split, parse, and check every docker run command in a text blob."""
    findings: list[Finding] = []
    for index, command in enumerate(split_commands(text), 1):
        try:
            spec = parse_run_command(command)
        except (CommandParseError, IncompleteCommandError) as exc:
            notices.append(f"{source_name}#{index}: {exc}")
            continue
        findings.extend(
            check_sensitive(
                spec,
                rules=rules,
                key_config=key_config,
                component=component,
                location=f"{source_name}#{index}",
            )
        )
    return findings


def parse_key_config(section: dict) -> SensitiveKeyConfig:
    """The sensitive-key settings of a config section or rules file; unset keys keep defaults."""
    return SensitiveKeyConfig(
        patterns=list_setting(section, "sensitive_key_patterns", SENSITIVE_KEY_PATTERNS),
        exact=list_setting(section, "sensitive_keys_exact", SENSITIVE_KEYS_EXACT),
        min_value_length=int(section.get("min_value_length", MIN_CREDENTIAL_LENGTH)),
        entropy_threshold=float(section.get("entropy_threshold", ENTROPY_THRESHOLD_BITS)),
    )


def load_rules_file(path: str) -> tuple[dict[ParamClass, SensitiveParamRule], SensitiveKeyConfig]:
    """Load rule overrides: per-class severity/enabled plus key settings.

    Malformed content raises ConfigError.
    """
    doc = read_settings_file(path)
    try:
        rules = dict(DEFAULT_RULES)
        for name, override in (doc.get("classes") or {}).items():
            param_class = ParamClass(name)
            base = DEFAULT_RULES[param_class]
            if override.get("enabled", True) is False:
                rules.pop(param_class, None)
                continue
            rules[param_class] = SensitiveParamRule(
                rule_id=override.get("rule_id", base.rule_id),
                param_class=param_class,
                severity=Severity(override.get("severity", base.severity)),
                description=override.get("description", base.description),
                remediation=override.get("remediation", base.remediation),
            )
        key_config = parse_key_config(doc)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: bad rules file: {exc}") from exc
    return rules, key_config
