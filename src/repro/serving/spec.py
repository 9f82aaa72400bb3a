"""One grammar for the serving loop's compact control specs.

``--faults`` scripts, ``--drift`` schedules, ``--replan`` triggers and
``--slo`` watchdogs all share one shape::

    kind@at[+duration][:key=value,...]

``kind`` names the clause and matches case-insensitively; ``at`` is a number
(a start time, a threshold or an SLA multiple); ``+duration`` is optional
where the spec family allows it; each ``key=value`` pair overrides one field
of the dataclass the clause builds, and every unset field keeps that
dataclass's default.  Fault scripts may join several clauses with ``;``.

Every malformed input raises :class:`SpecError`, a :class:`ValueError` with
the one-line message ``malformed <what> spec '<chunk>': <reason>; <hint>``,
so callers need one handler for all four spec families.  Numbers must be
finite, ``int`` fields take only integral values, a key may appear once,
pairs may not be empty, and a dataclass's own ``__post_init__`` complaint is
re-raised as a :class:`SpecError` naming the offending chunk.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["SpecError", "Grammar", "Clause", "is_off"]


class SpecError(ValueError):
    """A malformed control spec; the message is one line ending in a hint."""


def is_off(value: object) -> bool:
    """Whether a spec knob is switched off: ``None``, ``""`` or ``"none"``."""
    return value is None or (
        isinstance(value, str) and value.strip().lower() in ("", "none")
    )


@dataclass(frozen=True)
class Grammar:
    """One spec family: its name, clause kinds, number labels and hint."""

    #: Name of the family in error messages (``"fault"``, ``"slo"``, ...).
    what: str
    #: The accepted clause kinds, lower-case.
    kinds: tuple[str, ...]
    #: What a kind is called in the unknown-kind error.
    kind_label: str
    #: What the number after ``@`` is called in errors.
    at_label: str
    #: Usage hint closing every error message.
    hint: str
    #: Whether ``+duration`` may follow the ``@`` number.
    duration: bool = False
    #: Whether ``;`` may join several clauses.
    many: bool = False

    def error(self, chunk: str, reason: str) -> SpecError:
        return SpecError(f"malformed {self.what} spec {chunk!r}: {reason}; {self.hint}")

    def number(self, chunk: str, text: str, label: str, integer: bool = False):
        """Convert one numeric field, rejecting non-finite and fractional ints."""
        text = text.strip()
        try:
            value = float(text)
        except ValueError:
            raise self.error(chunk, f"bad {label} {text!r}") from None
        if not math.isfinite(value):
            raise self.error(chunk, f"bad {label} {text!r} (must be finite)")
        if integer:
            if not value.is_integer():
                raise self.error(chunk, f"bad {label} {text!r} (must be an integer)")
            return int(value)
        return value

    def parse(self, text: str) -> list[Clause]:
        """Split ``text`` into clauses (exactly one unless ``many``)."""
        chunks = [text.strip()]
        if self.many:
            chunks = [chunk.strip() for chunk in text.split(";") if chunk.strip()]
        if not chunks or not chunks[0]:
            raise self.error(text.strip(), "empty spec")
        return [self._clause(chunk) for chunk in chunks]

    def _clause(self, chunk: str) -> Clause:
        head, colon, pairs = chunk.partition(":")
        kind, at_sign, when = head.partition("@")
        kind = kind.strip().lower()
        if kind not in self.kinds:
            known = ", ".join(self.kinds)
            raise self.error(
                chunk, f"unknown {self.kind_label} {kind!r} (choose from {known})"
            )
        if not at_sign:
            raise self.error(chunk, f"missing '@<{self.at_label}>'")
        at_text, plus, duration_text = (
            when.partition("+") if self.duration else (when, "", "")
        )
        at = self.number(chunk, at_text, self.at_label)
        duration = self.number(chunk, duration_text, "duration") if plus else None
        params: dict[str, str] = {}
        for pair in pairs.split(",") if colon else ():
            key, equals, value = (part.strip() for part in pair.partition("="))
            if not equals or not key or not value:
                raise self.error(chunk, f"bad parameter {pair.strip()!r}")
            if key in params:
                raise self.error(chunk, f"duplicate parameter {key!r}")
            params[key] = value
        return Clause(self, chunk, kind, at, duration, params)


@dataclass(frozen=True)
class Clause:
    """One parsed ``kind@at[+duration][:key=value,...]`` clause."""

    grammar: Grammar
    chunk: str
    kind: str
    at: float
    #: The ``+duration`` number, ``None`` when absent.
    duration: float | None
    #: The raw ``key=value`` pairs, in spec order.
    params: Mapping[str, str]

    def error(self, reason: str) -> SpecError:
        return self.grammar.error(self.chunk, reason)

    def build(self, cls: type, keys: Mapping[str, str], **fields: Any):
        """Instantiate dataclass ``cls`` from ``fields`` plus this clause's pairs.

        ``keys`` maps each accepted spec key to its ``cls`` field.  A value
        converts by its field's annotation — ``int`` fields take integral
        numbers, ``float`` fields finite numbers, anything else the raw
        string — and a ``ValueError`` from ``cls`` itself comes back as a
        :class:`SpecError` naming this clause.
        """
        hints = typing.get_type_hints(cls)
        for key, text in self.params.items():
            name = keys.get(key)
            if name is None:
                known = ", ".join(sorted(keys))
                raise self.error(f"unknown parameter {key!r} (choose from {known})")
            types = typing.get_args(hints[name]) or (hints[name],)
            if int in types or float in types:
                fields[name] = self.grammar.number(self.chunk, text, key, int in types)
            else:
                fields[name] = text
        spec_keys = {name: key for key, name in keys.items()}
        for field in dataclasses.fields(cls):
            if field.name not in fields and field.default is dataclasses.MISSING:
                key = spec_keys.get(field.name, field.name)
                raise self.error(f"missing required parameter {key}=")
        try:
            return cls(**fields)
        except ValueError as error:
            raise self.error(str(error)) from None
