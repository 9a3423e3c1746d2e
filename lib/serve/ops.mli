(** Operation handlers shared by [mval] (local execution) and [mvald]
    (the daemon).

    Byte-identity between a local run and a [--remote] run is a hard
    requirement (asserted in CI), so the rendering of every flow
    command lives here exactly once: the local CLI calls the
    [*_texts] renderers directly, and the daemon reaches the same
    functions through {!dispatch} after decoding the request's JSON
    arguments. A renderer never prints — it returns a {!texts} record
    ({e stdout}, {e stderr}, exit code) that the CLI prints verbatim
    and the daemon ships inside the response.

    {!classify} is the single table mapping the flow's exceptions to
    protocol error kinds, human messages and exit codes; [mval]'s
    error handler and the daemon both use it, which is what makes an
    over-budget request come back as the same structured
    [budget_exceeded] error everywhere. *)

module Json = Mv_obs.Json

(** Rendered command output: what goes to stdout, to stderr, and the
    process exit code. *)
type texts = { out : string; err : string; code : int }

(** {1 Error classification} *)

(** Map a flow exception to (protocol error kind, message as the CLI
    prints it, exit code); [None] for unexpected exceptions. *)
val classify : exn -> (Proto.error_kind * string * int) option

(** The exit code [mval --remote] uses for a structured daemon error:
    the {!classify} codes for flow errors, [75] ([EX_TEMPFAIL]) for
    [Overloaded]/[Draining], [70] ([EX_SOFTWARE]) for [Internal]. *)
val exit_code_of_kind : Proto.error_kind -> int

(** {1 Shared renderers} *)

(** ["%d -> %d states\n"] — the [mval minimize] stderr note. *)
val minimize_note : before:int -> after:int -> string

(** [mval compare]: verdict line plus (for inequivalent traces) the
    counterexample; exit 0/1. *)
val compare_texts :
  Mv_core.Flow.Config.t ->
  Mv_core.Flow.equivalence ->
  Mv_lts.Lts.t ->
  Mv_lts.Lts.t ->
  texts

(** [mval check]: one verdict line per property, with a shortest
    witness trace when an invariant ({!Mv_mcl.Formula.invariant}:
    deadlock freedom, [\[true*\] phi], [always phi]) is violated,
    into a state where its body fails; formulas are parsed here
    so a parse error raises the same exception locally and remotely.
    Each formula is evaluated once ({!Mv_mcl.Eval.holds}). [engine] is
    ignored; it stays for callers written against the two checkers
    that [mval check --engine] used to choose between. *)
val check_texts :
  ?engine:[ `Fixpoint ] ->
  deadlock:bool ->
  formulas:string list ->
  Mv_lts.Lts.t ->
  texts

(** [mval solve]: the full performance-pipeline report. Raises
    [Mv_imc.To_ctmc.Nondeterministic] under [--scheduler fail]
    (classified to exit 4). *)
val solve_texts :
  Mv_core.Flow.Config.t -> first:string option -> Mv_calc.Ast.spec -> texts

(** [mval script]: run an SVL script (from [dir]) and render the step
    table or the [mv-svl-steps-v1] JSON; exit 0/1 on all-ok/failed. *)
val script_texts :
  ?cache:Mv_store.Cache.t -> ?dir:string -> json:bool -> string -> texts

(** Fold [-W] specs into a lint config; [Error] carries the CLI's
    "invalid -W argument" message (exit 2). *)
val lint_config_of_specs :
  max_phases:int -> string list -> (Mv_lint.Lint.config, string) result

(** [mval lint]: diagnostics (rendered against [file], the
    client-side path) or JSON; exit via [Lint.exit_code]. *)
val lint_texts :
  config:Mv_lint.Lint.config -> json:bool -> file:string -> string -> texts

(** [mval cache stats]: the human table or [mv-store-stats-v1]
    JSON. *)
val cache_stats_texts : json:bool -> Mv_store.Cache.t -> texts

(** [mval version]: the binary version and every protocol/on-disk
    schema version ({!Proto.versions_json}), as aligned text or
    JSON. *)
val version_texts : json:bool -> texts

(** Render a (possibly remote) {!Proto.versions_json} document the way
    [mval version] prints its own. *)
val version_texts_of_json : json:bool -> Json.t -> texts

(** {1 Request dispatch (the daemon side)} *)

(** JSON encodings of {!texts} for responses: [{"stdout", "stderr",
    "exit"}] (plus extra fields merged in). *)
val texts_json : ?extra:(string * Json.t) list -> texts -> Json.t

val texts_of_json : Json.t -> texts

(** [dispatch ?cache ?server request] executes one [mv-serve-v1]
    request and returns its result document or a structured error —
    never raises. [cache] is the daemon's shared artifact cache
    (consulted and filled exactly as a local [--cache] run would);
    [server] supplies the live server gauges embedded in a [metrics]
    response. The request's budget is enforced via
    {!Mv_core.Budget} inside the flow steps.

    Supported ops: [generate], [minimize], [equivalent], [check],
    [solve], [script], [lint], [cache-stats], [metrics],
    [metrics-text] (OpenMetrics exposition as a {!texts} document),
    [logs] (the {!Mv_obs.Log} flight-recorder dump, newest
    [args.limit] events), [version], [ping] and [sleep] (a
    test/load-bench aid that holds a worker for [args.s] seconds,
    honouring wall budgets). *)
val dispatch :
  ?cache:Mv_store.Cache.t ->
  ?server:(unit -> Json.t) ->
  Proto.request ->
  (Json.t, Proto.error) result

(** The OpenMetrics text exposition of the whole registry, with per-op
    serve histograms split into labelled families — what
    [metrics-text] and the daemon's [GET /metrics] answer serve. *)
val openmetrics_text : unit -> string
