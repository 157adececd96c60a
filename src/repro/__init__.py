"""repro: a reproduction of "Deciding Boundedness of Monadic Sirups"
(Kikot, Kurucz, Podolskii, Zakharyaschev; PODS 2021).

The package implements, from scratch:

* the paper's query classes (CQs with F/T labels, 1-CQs, d-sirups),
* a monadic datalog engine and the programs ``Pi_q`` / ``Sigma_q``,
* cactus expansions and the boundedness criterion of Proposition 2,
* the ditree classification of Section 4 (Theorems 7, 9, 11) with the
  exact Lambda-CQ FO/L decider of Appendix F,
* the Theorem 3 2ExpTime-hardness construction (ATMs, 01-tree encodings,
  Boolean-circuit gadget queries),
* the Schema.org / DL-Lite_bool bridge of Proposition 5.

Quick start::

    from repro import zoo, certain_answer
    print(certain_answer(zoo.q2(), zoo.d2()))   # True (Example 2)

For anything beyond one-off calls, build an explicit execution
context — a :class:`~repro.session.Session` owning a frozen
:class:`~repro.core.config.EngineConfig` (backend, caches, process
pool)::

    from repro import EngineConfig, Session
    with Session(EngineConfig(backend="auto", workers=8)) as s:
        print(s.certain_answer(zoo.q2(), zoo.d2()))

Free functions called without ``session=`` run in the default session
(configured from the ``REPRO_*`` environment on first use).

Subpackages (imported on demand): :mod:`repro.core` (structures,
datalog, cactuses, boundedness), :mod:`repro.ditree` (Section 4
classifiers and the Lambda-CQ decider), :mod:`repro.circuits` and
:mod:`repro.atm` (the Theorem 3 construction), :mod:`repro.obda`
(Proposition 5), :mod:`repro.workloads` (generators).
"""

from .core import (
    A,
    Answer,
    BOOL,
    Budget,
    COUNT,
    CactusBudgetExceeded,
    DeadlineExceeded,
    EngineConfig,
    EngineError,
    Evaluation,
    F,
    FuelExhausted,
    MAXPLUS,
    MINPLUS,
    OneCQ,
    PROB,
    Program,
    R,
    ResourceExhausted,
    Rule,
    S,
    Semiring,
    Structure,
    StructureBuilder,
    T,
    UnknownSemiring,
    Verdict,
    WHY,
    WorkerFailure,
    cactus_factory,
    certain_answer,
    compile_programs,
    covers_any,
    evaluate_batch,
    find_homomorphism,
    full_cactus,
    has_homomorphism,
    initial_cactus,
    is_one_cq,
    iter_cactuses,
    path_structure,
    probe_boundedness,
    register_semiring,
    registered_semirings,
    resolve_semiring,
    semiring_evaluate,
    ucq_certain_answers,
    ucq_rewriting,
)
from .session import (
    Session,
    default_session,
    reset_default_session,
    set_default_session,
)

__version__ = "1.1.0"

__all__ = [
    "A",
    "Answer",
    "BOOL",
    "Budget",
    "COUNT",
    "CactusBudgetExceeded",
    "DeadlineExceeded",
    "EngineConfig",
    "EngineError",
    "Evaluation",
    "F",
    "FuelExhausted",
    "MAXPLUS",
    "MINPLUS",
    "OneCQ",
    "PROB",
    "Program",
    "R",
    "ResourceExhausted",
    "Rule",
    "S",
    "Semiring",
    "UnknownSemiring",
    "WHY",
    "WorkerFailure",
    "Session",
    "Structure",
    "StructureBuilder",
    "T",
    "Verdict",
    "cactus_factory",
    "certain_answer",
    "compile_programs",
    "covers_any",
    "default_session",
    "evaluate_batch",
    "find_homomorphism",
    "full_cactus",
    "has_homomorphism",
    "initial_cactus",
    "is_one_cq",
    "iter_cactuses",
    "path_structure",
    "probe_boundedness",
    "register_semiring",
    "registered_semirings",
    "reset_default_session",
    "resolve_semiring",
    "semiring_evaluate",
    "set_default_session",
    "ucq_certain_answers",
    "ucq_rewriting",
    "__version__",
]
