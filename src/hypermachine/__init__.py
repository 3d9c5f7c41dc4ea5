"""A workbench for machines that halt, machines that settle, and the gap
between them: deterministic and multi-tape simulation, binary descriptions
with enumeration and universal simulation, output-stabilization semantics
with non-halting certificates, limit-computed functions, self-editing
machines, and an exhaustive finite-automata separation harness."""

from .codec import (
    Description,
    InvalidEncoding,
    UnsupportedMachineError,
    decode,
    encode,
    enumerate_machines,
    index_word,
    iter_descriptions,
    nth_description,
    universal_run,
    word_index,
)
from .corpus import corpus_machine, delay_machine, two_state_family
from .dsl import ParseError, SpecDocument, parse_machine_spec, unparse
from .inductive import (
    AuditReport,
    AuditRow,
    BlankRunaway,
    Certificate,
    CertifiedStable,
    ConfigurationCycle,
    HaltsAt,
    Halted,
    InductiveOutcome,
    ObservationLog,
    Provisional,
    Unknown,
    audit_decider,
    budget_decider,
    certified_decider,
    certify_nonhalting,
    diagonalize,
    halting_limit_decider,
    inductive_run,
)
from .limits import (
    GuessEvaluationError,
    LimitFunction,
    LimitReport,
    builtin_limit_function,
    divergence_as_limit,
    halting_as_limit,
    limit_eval,
)
from .machine import (
    BudgetExhausted,
    Configuration,
    Counterexample,
    EquivalentUpTo,
    HaltedResultless,
    HaltedWithResult,
    HypermachineError,
    InputError,
    Machine,
    Run,
    RunOutcome,
    StructureError,
    observational_equiv,
    run_bounded,
    single_tape_machine,
    step,
)
from .reflexive import (
    EditAction,
    EditLog,
    EfficiencyRow,
    InstallRule,
    ReflexiveMachine,
    ReplaceRule,
    compare_efficiency,
    reflexive_run,
)
from .subrec import (
    Dfa,
    DfaFound,
    NoDfaMatches,
    SearchSpaceError,
    SeparationReport,
    dfa_equiv,
    dfa_run,
    separation_search,
)
from .trace import TraceRecord, emit_trace, trace_run, watch

__version__ = "0.1.0"
