"""Declared run counters: each counter is declared once, as a field.

Run statistics such as :class:`~repro.atpg.engine.EngineStats`,
:class:`~repro.atpg.supervisor.RunHealth` and
:class:`~repro.core.width_pipeline.WidthStudyStats` are dataclasses
deriving from :class:`Counters`.  Merging shard results
(:meth:`Counters.merge`) and the JSON view (:meth:`Counters.as_dict`)
are derived from the field declarations, so a new counter is one line
and no hand-written merge line can be forgotten.

Merge rules follow the field's value type unless the declaration says
otherwise (:func:`counter`): numbers add, bools OR, lists extend, and
nested :class:`Counters` merge recursively.  A type with no rule (a
dict, say) raises instead of being dropped silently.
"""

from __future__ import annotations

from dataclasses import field, fields
from typing import Any, Optional


def counter(
    default: Any, *, merge: bool = True, stage: Optional[str] = None
) -> Any:
    """Declare a counter field with a non-default rule.

    Args:
        default: initial value, or a factory (``list``, ``dict``, a
            :class:`Counters` subclass) for mutable ones.
        merge: ``False`` leaves the field out of :meth:`Counters.merge`
            — for values the owner of the merged result sets itself.
        stage: the field is a stage wall time; it is reported under
            this name by :meth:`Counters.stage_times` and in the
            ``stage_times`` block of :meth:`Counters.as_dict`.
    """
    metadata: dict[str, Any] = {"merge": merge}
    if stage is not None:
        metadata["stage"] = stage
    if callable(default):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


class Counters:
    """Base for dataclasses of run counters; see the module docstring."""

    def merge(self, other: Counters) -> None:
        """Accumulate ``other``'s counters (parallel shard merging)."""
        for spec in fields(self):
            if not spec.metadata.get("merge", True):
                continue
            name = spec.name
            mine, theirs = getattr(self, name), getattr(other, name)
            if isinstance(mine, Counters):
                mine.merge(theirs)
            elif isinstance(mine, list):
                mine.extend(theirs)
            # bool before int: True merged with True stays True, not 2.
            elif isinstance(mine, bool):
                setattr(self, name, mine or theirs)
            elif isinstance(mine, (int, float)):
                setattr(self, name, mine + theirs)
            else:
                raise TypeError(
                    f"{type(self).__name__}.{name}: no merge rule for "
                    f"{type(mine).__name__}; declare counter(merge=False)"
                )

    def stage_times(self) -> dict[str, float]:
        """Per-stage wall times, keyed by stage name."""
        return {
            spec.metadata["stage"]: getattr(self, spec.name)
            for spec in fields(self)
            if "stage" in spec.metadata
        }

    def derived(self) -> dict[str, float]:
        """Values computed from the counters, appended to
        :meth:`as_dict` (rates, hit ratios)."""
        return {}

    def as_dict(self) -> dict:
        """JSON-ready view: fields in declaration order, stage times
        grouped under ``stage_times``, then :meth:`derived`."""
        doc: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if "stage" in spec.metadata:
                doc.setdefault("stage_times", {})[spec.metadata["stage"]] = value
            elif isinstance(value, Counters):
                doc[spec.name] = value.as_dict()
            elif isinstance(value, (list, dict)):
                doc[spec.name] = value.copy()
            else:
                doc[spec.name] = value
        doc.update(self.derived())
        return doc
