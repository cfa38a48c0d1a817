(** Wall-clock measurement of the experiment drivers and comparison against
    a committed [BENCH.json] baseline — the perf-regression gate behind
    [repro bench --compare]. *)

val wall_measurements : ?quick:bool -> Experiments.scale -> int -> (string * float) list
(** [(driver, wall_ms)] for every experiment driver, run at the given job
    count.  Also used by [bench/main.exe --json] to write the baseline.
    [quick] (default false) is the CI smoke grid: the figure drivers plus
    scaling, the quick block sweep, and the quick protocol sweeps —
    ablations and inspector are skipped, and the shrunk grids mean quick
    numbers are only comparable to another quick run. *)

val load_baseline : string -> ((string * float) list, string) result
(** Read the ["wall_ms"] object (driver name to milliseconds) out of a
    [bench --json] baseline file.  [Error] when the file cannot be read, is
    not JSON, or has no non-empty all-numeric ["wall_ms"] object. *)

type verdict = {
  name : string;
  baseline_ms : float;
  current_ms : float;
  delta_pct : float;  (** positive = slower than baseline *)
  regressed : bool;  (** [delta_pct] beyond the threshold *)
}

type comparison = {
  verdicts : verdict list;  (** drivers present on both sides *)
  added : (string * float) list;  (** current drivers the baseline lacks *)
  removed : (string * float) list;  (** baseline drivers no longer measured *)
}

val compare_runs :
  threshold_pct:float -> baseline:(string * float) list -> (string * float) list -> comparison
(** Match current measurements against the baseline by driver name; a
    matched driver is flagged regressed when it is more than [threshold_pct]
    percent {e and} 10 ms slower — the absolute floor keeps sub-millisecond
    drivers from tripping on timer noise.  Key-set drift lands in [added] /
    [removed] (and in the rendered verdict table), never silently skipped. *)

val any_regression : comparison -> bool
val keys_differ : comparison -> bool

val render : threshold_pct:float -> comparison -> string
(** ASCII table of the verdicts — matched drivers first, then [added] rows
    ("NEW (no baseline)") and [removed] rows ("REMOVED") — with a
    host-dependence caveat, and a drift summary line when the key sets
    differ. *)
