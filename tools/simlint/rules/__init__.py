"""The rules the tool runs.

Extending the linter means adding a :class:`simlint.rule.Rule` subclass
to one of these modules, an instance of it to :data:`RULES`, and a
``bad_*.py`` / ``ok_*.py`` fixture pair under ``tests/lint_fixtures/``.
"""

from .determinism import GlobalRngRule, SetIterationRule, WallClockRule
from .handlers import TopologyMutationRule
from .private import PrivateAttributeRule, PrivateImportRule
from .snapshot import CounterWatermarkRule, UnpicklableAttributeRule
from .telemetry import UnguardedEmissionRule

RULES = (
    WallClockRule(),
    GlobalRngRule(),
    SetIterationRule(),
    UnpicklableAttributeRule(),
    CounterWatermarkRule(),
    UnguardedEmissionRule(),
    PrivateAttributeRule(),
    PrivateImportRule(),
    TopologyMutationRule(),
)
