"""The run-telemetry store: content-addressed envelopes of run evidence.

The observability layer so far answers questions about *one* run: the
flight recorder orders its events and keeps its last-N window, the
metrics registry snapshots its counters.  This module adds the
*cross-run* memory: every instrumented ``repro run`` / ``profile`` /
``bench`` / ``chaos`` invocation can append one **telemetry envelope**
— a versioned JSON document bundling the run's stats summary, metrics
snapshot, bench timings or chaos taxonomy, observability overhead, git
revision and seed — to a content-addressed store under
``.repro/telemetry/``.  The regression observatory (``repro report``)
and the live endpoint (``repro metricsd``) read that store.

Store layout (all plain files, no daemon required to write)::

    .repro/telemetry/
        objects/<sha256>.json   # one envelope, canonical JSON
        index.jsonl             # append-only: one summary line per
                                # envelope, newest last

Envelopes are addressed by the SHA-256 of their canonical JSON — the
same content-addressing discipline as the frontend analysis cache — so
re-recording an identical run is a no-op and the index can be rebuilt
from the objects directory alone.  The schema is versioned
(``repro-telemetry/1``) with the same load/validate discipline as the
flight recorder's ``repro-flightrec/1`` dumps.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from typing import Any, Dict, List, Optional

#: envelope schema tag; bump when the envelope shape changes
TELEMETRY_SCHEMA = "repro-telemetry/1"

#: default store root, relative to the working directory
DEFAULT_STORE = os.path.join(".repro", "telemetry")

#: envelope kinds the CLI emits; the validator warns on unknown kinds
#: (forward compatibility) rather than rejecting them
KNOWN_KINDS = ("run", "profile", "bench", "chaos", "trace")

#: index entries kept when trimming (the objects stay; only the
#: fast-path index is bounded)
DEFAULT_INDEX_LIMIT = 4096


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def envelope_digest(envelope: Dict[str, Any]) -> str:
    """Content address: SHA-256 of the canonical JSON."""
    return hashlib.sha256(
        canonical_json(envelope).encode("utf-8")).hexdigest()


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit sha, or None outside a repo / without
    git.  Never raises — telemetry must not fail a run."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def make_envelope(kind: str, *,
                  label: str = "",
                  summary: Optional[Dict[str, Any]] = None,
                  metrics: Optional[Dict[str, Any]] = None,
                  bench: Optional[Dict[str, Any]] = None,
                  chaos: Optional[Dict[str, Any]] = None,
                  cache: Optional[Dict[str, Any]] = None,
                  flight: Optional[Dict[str, Any]] = None,
                  overhead: Optional[Dict[str, Any]] = None,
                  seed: Optional[int] = None,
                  meta: Optional[Dict[str, Any]] = None,
                  created_at: Optional[float] = None,
                  git_sha: Optional[str] = None) -> Dict[str, Any]:
    """Build one telemetry envelope.  Only non-empty sections are
    included, so a bench envelope does not carry empty run sections."""
    env: Dict[str, Any] = {
        "schema": TELEMETRY_SCHEMA,
        "kind": kind,
        "created_at": round(time.time() if created_at is None
                            else created_at, 3),
    }
    if label:
        env["label"] = label
    sha = git_sha if git_sha is not None else git_revision()
    if sha:
        env["git_sha"] = sha
    if seed is not None:
        env["seed"] = seed
    for key, section in (("summary", summary), ("metrics", metrics),
                         ("bench", bench), ("chaos", chaos),
                         ("cache", cache), ("flight", flight),
                         ("overhead", overhead), ("meta", meta)):
        if section:
            env[key] = section
    return env


def validate_envelope(envelope: Dict[str, Any]) -> List[str]:
    """Schema checks on one envelope; returns problems (empty = valid).
    Unknown kinds only warn via the store's ``validate`` (forward
    compatibility) — here they are a problem so callers can be strict."""
    problems: List[str] = []
    if not isinstance(envelope, dict):
        return ["envelope is not an object"]
    schema = envelope.get("schema")
    if schema != TELEMETRY_SCHEMA:
        problems.append(f"schema {schema!r} != {TELEMETRY_SCHEMA!r}")
    kind = envelope.get("kind")
    if not isinstance(kind, str) or not kind:
        problems.append("missing envelope kind")
    elif kind not in KNOWN_KINDS:
        problems.append(f"unknown envelope kind {kind!r}")
    created = envelope.get("created_at")
    if not isinstance(created, (int, float)):
        problems.append("created_at is not a number")
    for key in ("summary", "metrics", "bench", "chaos", "cache",
                "flight", "overhead", "meta"):
        if key in envelope and not isinstance(envelope[key], dict):
            problems.append(f"section {key!r} is not an object")
    return problems


class TelemetryStore:
    """The on-disk envelope store.  Cheap to construct; all methods
    tolerate a store that does not exist yet (reads return empty)."""

    def __init__(self, root: str = DEFAULT_STORE) -> None:
        self.root = root
        self.objects_dir = os.path.join(root, "objects")
        self.index_path = os.path.join(root, "index.jsonl")

    # -- writing -------------------------------------------------------

    def append(self, envelope: Dict[str, Any]) -> str:
        """Store one envelope; returns its content address.  Identical
        envelopes dedup to the same object and a single index line."""
        problems = validate_envelope(envelope)
        if problems:
            raise ValueError("invalid telemetry envelope: "
                             + "; ".join(problems))
        sha = envelope_digest(envelope)
        os.makedirs(self.objects_dir, exist_ok=True)
        obj_path = os.path.join(self.objects_dir, sha + ".json")
        if not os.path.exists(obj_path):
            tmp = obj_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(envelope))
            os.replace(tmp, obj_path)
            with open(self.index_path, "a", encoding="utf-8") as handle:
                handle.write(canonical_json(
                    self._index_entry(sha, envelope)) + "\n")
        return sha

    @staticmethod
    def _index_entry(sha: str,
                     envelope: Dict[str, Any]) -> Dict[str, Any]:
        """The small scan-friendly line the index keeps per envelope."""
        entry: Dict[str, Any] = {
            "sha": sha,
            "kind": envelope["kind"],
            "created_at": envelope["created_at"],
        }
        for key in ("label", "git_sha", "seed"):
            if key in envelope:
                entry[key] = envelope[key]
        summary = envelope.get("summary")
        if isinstance(summary, dict) and "cycles" in summary:
            entry["cycles"] = summary["cycles"]
        return entry

    # -- reading -------------------------------------------------------

    def index(self) -> List[Dict[str, Any]]:
        """Every index entry, oldest first.  Malformed lines are
        skipped (a crashed append must not poison the store)."""
        if not os.path.exists(self.index_path):
            return []
        entries: List[Dict[str, Any]] = []
        with open(self.index_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict) and entry.get("sha"):
                    entries.append(entry)
        return entries

    def load(self, sha: str) -> Dict[str, Any]:
        """Load one envelope by content address."""
        path = os.path.join(self.objects_dir, sha + ".json")
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        actual = envelope_digest(envelope)
        if actual != sha:
            raise ValueError(f"telemetry object {sha} is corrupt "
                             f"(content hashes to {actual})")
        return envelope

    def recent(self, n: int = 20,
               kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """The newest ``n`` index entries (newest first), optionally
        filtered by envelope kind."""
        entries = self.index()
        if kind is not None:
            entries = [e for e in entries if e.get("kind") == kind]
        return list(reversed(entries[-n:])) if n else []

    def load_recent(self, n: int = 20,
                    kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """The newest ``n`` full envelopes (newest first); entries whose
        object is missing or corrupt are skipped."""
        out: List[Dict[str, Any]] = []
        for entry in self.recent(n, kind):
            try:
                out.append(self.load(entry["sha"]))
            except (OSError, ValueError):
                continue
        return out

    # -- maintenance ---------------------------------------------------

    def validate(self) -> List[str]:
        """Cross-check the index against the objects.  Returns problems
        (empty = healthy).  Unknown kinds warn, matching the flight
        recorder's tolerance for forward-compatible dumps."""
        problems: List[str] = []
        seen = set()
        for entry in self.index():
            sha = entry["sha"]
            if sha in seen:
                problems.append(f"duplicate index entry for {sha[:12]}")
                continue
            seen.add(sha)
            try:
                envelope = self.load(sha)
            except OSError:
                problems.append(f"index references missing object "
                                f"{sha[:12]}")
                continue
            except ValueError as err:
                problems.append(str(err))
                continue
            for problem in validate_envelope(envelope):
                problems.append(f"{sha[:12]}: {problem}")
        if os.path.isdir(self.objects_dir):
            for name in os.listdir(self.objects_dir):
                if not name.endswith(".json"):
                    continue
                sha = name[:-len(".json")]
                if sha not in seen:
                    problems.append(
                        f"object {sha[:12]} missing from index "
                        f"(run rebuild_index)")
        return problems

    def rebuild_index(self) -> int:
        """Regenerate ``index.jsonl`` from the objects directory
        (ordered by ``created_at``).  Returns the entry count."""
        envelopes: List[Dict[str, Any]] = []
        if os.path.isdir(self.objects_dir):
            for name in sorted(os.listdir(self.objects_dir)):
                if not name.endswith(".json"):
                    continue
                try:
                    envelopes.append(self.load(name[:-len(".json")]))
                except (OSError, ValueError):
                    continue
        envelopes.sort(key=lambda e: e.get("created_at", 0))
        os.makedirs(self.root, exist_ok=True)
        tmp = self.index_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for envelope in envelopes:
                handle.write(canonical_json(self._index_entry(
                    envelope_digest(envelope), envelope)) + "\n")
        os.replace(tmp, self.index_path)
        return len(envelopes)
