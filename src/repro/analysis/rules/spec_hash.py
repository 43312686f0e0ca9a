"""RPR002 — spec-hash hygiene: a spec's hash must cover what execution reads.

Every cacheable unit of work in this project is keyed by the SHA-256 of
a spec's canonical ``as_dict()`` form (``JobSpec``/``ExperimentSpec``
drive the on-disk sweep cache, ``SessionSpec`` is a tenant's wire
identity).  The contract has two failure modes, both silent:

* a **hash-excluded but result-affecting field** — a dataclass field
  left out of ``as_dict()`` that kernels or grid expansion read:
  two different configurations collide on one cache entry and the
  second run is served the first run's bytes;
* a **dead hashed key** — an ``as_dict()`` entry that corresponds to no
  field (a rename or removal that forgot the dict): the hash churns on
  nothing, or worse, raises only at hash time.

This rule cross-checks every ``*Spec`` dataclass that defines
``as_dict`` against its fields, and then scans the whole analyzed file
set for reads of excluded fields through parameters annotated with the
spec type (``def execute_job(job: JobSpec)`` ... ``job.backend``).
Deliberate execution-only fields (``backend`` — excluded *because*
results are backend-invariant) carry an inline
``allow[RPR002]`` pragma on the field definition; a pragma there also
sanctions the downstream reads, keeping the policy in exactly one place.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.finding import Finding
from repro.analysis.rules.base import ProjectRule
from repro.analysis.source import SourceFile

__all__ = ["SpecHashRule"]


@dataclass
class _SpecClass:
    """One ``*Spec`` dataclass with an analyzable ``as_dict``."""

    name: str
    sf: SourceFile
    fields: dict[str, int] = field(default_factory=dict)  # name -> lineno
    hashed_keys: dict[str, ast.expr] = field(default_factory=dict)
    has_spec_hash: bool = False
    dict_lineno: int = 0

    @property
    def excluded(self) -> dict[str, int]:
        return {
            name: line
            for name, line in self.fields.items()
            if name not in self.hashed_keys
        }


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return True
    return False


def _references_self(node: ast.expr) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id == "self":
            return True
    return False


def _annotation_name(annotation: ast.expr | None) -> str | None:
    """Class name out of a parameter annotation (``JobSpec``,
    ``"JobSpec"``, ``sweep.JobSpec``, ``JobSpec | None``)."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.split(".")[-1].strip()
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotation_name(annotation.left)
    return None


class SpecHashRule(ProjectRule):
    rule_id = "RPR002"
    name = "spec-hash-hygiene"
    description = (
        "*Spec dataclass fields must be hashed by as_dict() or explicitly "
        "allowed as execution-only; as_dict() keys must map to fields"
    )

    def check_project(self, files: list[SourceFile]) -> Iterator[Finding]:
        classes = [
            spec
            for sf in files
            if sf.tree is not None
            for spec in self._collect_spec_classes(sf)
        ]
        for spec in classes:
            yield from self._check_class(spec)
        yield from self._check_consumer_reads(files, classes)

    # -- collection ----------------------------------------------------------

    def _collect_spec_classes(self, sf: SourceFile) -> Iterator[_SpecClass]:
        for node in ast.walk(sf.tree):
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Spec")
                and _is_dataclass(node)
            ):
                continue
            spec = _SpecClass(name=node.name, sf=sf)
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    annotation = ast.dump(statement.annotation)
                    if "ClassVar" in annotation:
                        continue
                    spec.fields[statement.target.id] = statement.lineno
                elif isinstance(
                    statement, ast.FunctionDef
                ) and statement.name == "spec_hash":
                    spec.has_spec_hash = True
                elif isinstance(
                    statement, ast.FunctionDef
                ) and statement.name == "as_dict":
                    self._read_as_dict(spec, statement)
            if spec.hashed_keys or spec.dict_lineno:
                yield spec

    @staticmethod
    def _read_as_dict(spec: _SpecClass, fn: ast.FunctionDef) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                literal = node.value
                if all(
                    isinstance(key, ast.Constant) and isinstance(key.value, str)
                    for key in literal.keys
                ):
                    spec.dict_lineno = literal.lineno
                    spec.hashed_keys = {
                        key.value: value
                        for key, value in zip(literal.keys, literal.values)
                    }
                return

    # -- per-class checks ----------------------------------------------------

    def _check_class(self, spec: _SpecClass) -> Iterator[Finding]:
        hash_word = "spec_hash()" if spec.has_spec_hash else "as_dict()"
        for name, line in sorted(spec.excluded.items()):
            yield self.finding(
                spec.sf, line, 0,
                f"field '{name}' of {spec.name} is excluded from "
                f"{hash_word} — state that can affect results must be "
                "hashed; mark deliberate execution-only plumbing with "
                "allow[RPR002] on this line",
            )
        for key, value in sorted(spec.hashed_keys.items()):
            if key in spec.fields or _references_self(value):
                continue
            yield self.finding(
                spec.sf, value.lineno, value.col_offset,
                f"{spec.name}.as_dict() emits key '{key}' that maps to no "
                "field and reads no instance state — a dead hashed key "
                "(stale rename?)",
            )

    # -- cross-file consumer reads -------------------------------------------

    def _check_consumer_reads(
        self, files: list[SourceFile], classes: list[_SpecClass]
    ) -> Iterator[Finding]:
        unguarded: dict[str, dict[str, int]] = {}
        for spec in classes:
            bad = {
                name: line
                for name, line in spec.excluded.items()
                if not spec.sf.is_allowed(self.rule_id, line)
            }
            if bad:
                unguarded.setdefault(spec.name, {}).update(bad)
        if not unguarded:
            return
        for sf in files:
            if sf.tree is None:
                continue
            for fn in ast.walk(sf.tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                params: dict[str, str] = {}
                for arg in [*fn.args.posonlyargs, *fn.args.args,
                            *fn.args.kwonlyargs]:
                    class_name = _annotation_name(arg.annotation)
                    if class_name in unguarded and arg.arg != "self":
                        params[arg.arg] = class_name
                if not params:
                    continue
                for node in ast.walk(fn):
                    if not (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in params
                    ):
                        continue
                    class_name = params[node.value.id]
                    if node.attr in unguarded[class_name]:
                        yield self.finding(
                            sf, node.lineno, node.col_offset,
                            f"reads {class_name}.{node.attr}, which is "
                            "excluded from the spec hash without an "
                            "allow[RPR002] pragma — two specs differing "
                            "only in this field share one cache entry",
                        )
