module E = Experiments
module Json = Ccdsm_util.Json

(* Wall-clock per experiment driver, run through the multicore fan-out at the
   given job count.  These are the end-to-end numbers the perf-regression
   gate is judged on; Bechamel rows in bench/main.ml are per-operation micro
   costs.  Shared between [bench/main.exe --json] (which writes the
   baseline) and [repro bench --compare] (which checks against it). *)
let wall_measurements ?(quick = false) scale jobs =
  let wall name f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    (name, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let figures =
    [
      wall "table1" (fun () -> E.table1 scale);
      wall "fig4" (fun () -> E.fig4 ());
      wall "fig5" (fun () -> E.render (E.fig5 ~jobs scale));
      wall "fig6" (fun () -> E.render (E.fig6 ~jobs scale));
      wall "fig7" (fun () -> E.render (E.fig7 ~jobs scale));
    ]
  in
  (* The heavy drivers are skipped entirely in quick mode (the CI smoke);
     the block sweep keeps its name but shrinks to the quick grid, so a
     quick run's numbers are comparable only to a quick baseline. *)
  let heavy =
    if quick then [ wall "block_sweep" (fun () -> E.block_sweep ~jobs ~quick:true scale) ]
    else
      [
        wall "block_sweep" (fun () -> E.block_sweep ~jobs scale);
        wall "ablations" (fun () -> E.ablations scale);
        wall "inspector" (fun () -> E.inspector scale);
      ]
  in
  figures @ heavy
  @ [ wall "scaling" (fun () -> E.scaling ~jobs scale) ]
  (* One differential-sweep timing per registered protocol, so a slow new
     protocol (or a regression in one) shows up under its own name. *)
  @ List.map
      (fun p ->
        wall
          ("protocol_sweep_" ^ Ccdsm_runtime.Runtime.protocol_name p)
          (fun () -> E.protocol_sweep ~jobs ~quick ~protocols:[ p ] scale))
      (Proto_diff.all_protocols ())

(* -- baseline ---------------------------------------------------------------- *)

let load_baseline path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> (
      match Result.bind (Json.parse s) Json.(field "wall_ms" (assoc float)) with
      | Error e -> Error (Printf.sprintf "%s: %s (is this a bench --json baseline?)" path e)
      | Ok [] -> Error (path ^ ": \"wall_ms\" object holds no entries")
      | Ok entries -> Ok entries)

(* -- comparison ----------------------------------------------------------- *)

type verdict = {
  name : string;
  baseline_ms : float;
  current_ms : float;
  delta_pct : float;  (** positive = slower than baseline *)
  regressed : bool;
}

(* Percent thresholds alone flag sub-millisecond drivers on pure timer
   noise, so a regression additionally needs an absolute slowdown. *)
let min_abs_slowdown_ms = 10.0

type comparison = {
  verdicts : verdict list;
  added : (string * float) list;
  removed : (string * float) list;
}

let compare_runs ~threshold_pct ~baseline current =
  let verdicts =
    List.filter_map
      (fun (name, current_ms) ->
        match List.assoc_opt name baseline with
        | None -> None
        | Some baseline_ms ->
            let delta_pct =
              if baseline_ms <= 0.0 then 0.0
              else (current_ms -. baseline_ms) /. baseline_ms *. 100.0
            in
            Some
              {
                name;
                baseline_ms;
                current_ms;
                delta_pct;
                regressed =
                  delta_pct > threshold_pct
                  && current_ms -. baseline_ms > min_abs_slowdown_ms;
              })
      current
  in
  (* Key-set drift is reported, never silently skipped: a renamed or new
     driver would otherwise sail past the gate unjudged. *)
  let added =
    List.filter (fun (name, _) -> not (List.mem_assoc name baseline)) current
  in
  let removed =
    List.filter (fun (name, _) -> not (List.mem_assoc name current)) baseline
  in
  { verdicts; added; removed }

let any_regression c = List.exists (fun v -> v.regressed) c.verdicts
let keys_differ c = c.added <> [] || c.removed <> []

let render ~threshold_pct c =
  let module Ascii = Ccdsm_util.Ascii in
  let rows =
    List.map
      (fun v ->
        [
          v.name;
          Printf.sprintf "%.1f" v.baseline_ms;
          Printf.sprintf "%.1f" v.current_ms;
          Printf.sprintf "%+.1f%%" v.delta_pct;
          (if v.regressed then "REGRESSED" else "ok");
        ])
      c.verdicts
    @ List.map
        (fun (name, ms) -> [ name; "-"; Printf.sprintf "%.1f" ms; "-"; "NEW (no baseline)" ])
        c.added
    @ List.map
        (fun (name, ms) -> [ name; Printf.sprintf "%.1f" ms; "-"; "-"; "REMOVED" ])
        c.removed
  in
  Printf.sprintf
    "Perf comparison against baseline (wall ms per driver; threshold %+.0f%%).\n\
     Wall clock is host-dependent — treat this as advisory unless the runner\n\
     matches the one that wrote the baseline.\n"
    threshold_pct
  ^ Ascii.table ~header:[ "driver"; "baseline(ms)"; "current(ms)"; "delta"; "verdict" ] rows
  ^
  if keys_differ c then
    Printf.sprintf
      "driver set differs from baseline: %d new, %d removed — refresh BENCH.json \
       (bench/main.exe --json) to judge them.\n"
      (List.length c.added) (List.length c.removed)
  else ""
