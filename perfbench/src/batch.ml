(* The figures workload: the drivers `repro all` runs (fig5, fig6, fig7,
   block_sweep) at the scaled data sets and 32 nodes, no observer attached.

   An untraced repetition calls the drivers exactly as the CLI does and
   times them whole.  The traced run replays the same grids cell by cell
   with a span around every call. *)

module E = Ccdsm_harness.Experiments
module Measure = Ccdsm_harness.Measure
module Parjobs = Ccdsm_harness.Parjobs
module Runtime = Ccdsm_runtime.Runtime
module Obs = Ccdsm_obs.Obs

let now = Unix.gettimeofday

let shuffle ~seed l =
  let a = Array.of_list l in
  Ccdsm_util.Prng.shuffle (Ccdsm_util.Prng.create ~seed) a;
  Array.to_list a

(* -- checks ----------------------------------------------------------------- *)

let block_of_label label =
  match (String.rindex_opt label '(', String.rindex_opt label ')') with
  | Some i, Some j when j > i -> int_of_string_opt (String.sub label (i + 1) (j - i - 1))
  | _ -> None

let figure_app fig_id label =
  match fig_id with
  | "fig5" -> "adaptive"
  | "fig6" -> if String.starts_with ~prefix:"SPMD" label then "barnes_spmd" else "barnes"
  | _ -> if String.starts_with ~prefix:"Splash" label then "water_splash" else "water"

let check_figure checks expected (fig : E.figure) =
  List.iter
    (fun (m : Measure.measurement) ->
      let ok =
        match block_of_label m.Measure.label with
        | None -> false
        | Some block ->
            Expected.matches expected
              (Expected.key (figure_app fig.E.id m.Measure.label) ~nodes:Grid.figure_nodes ~block)
              m.Measure.checksum
      in
      Checks.check checks ok (Printf.sprintf "%s %s: checksum" fig.E.id m.Measure.label))
    fig.E.rows

let check_shapes checks ~fig5 ~fig6 ~fig7 =
  List.iter (fun (claim, ok) -> Checks.check checks ok ("shape: " ^ claim)) (E.check_shapes ~fig5 ~fig6 ~fig7)

(* block_sweep renders a table only: its rows as (app, block, unopt ms,
   opt ms), the times as the table prints them. *)
type sweep_row = string * int * string * string

let sweep_rows text : sweep_row list =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ app; bs; unopt; opt; speedup ] -> (
             match (int_of_string_opt bs, float_of_string_opt speedup) with
             | Some bs, Some s when s > 0.0 -> Some (String.lowercase_ascii app, bs, unopt, opt)
             | _ -> None)
         | _ -> None)

(* Every (app, block) row must be present with a positive speedup. *)
let check_block_sweep checks rows =
  List.iter
    (fun app ->
      List.iter
        (fun bs ->
          Checks.check checks
            (List.exists (fun (a, b, _, _) -> a = app && b = bs) rows)
            (Printf.sprintf "block_sweep %s %d" app bs))
        Grid.sweep_blocks)
    [ "adaptive"; "barnes"; "water" ]

(* A hash of what the four drivers return: every fig5/fig6/fig7 row, whole,
   and every block_sweep row.  The untraced repetition reports it as
   sim.stats_digest; the traced replay must rebuild the same value. *)
let figures_digest ~fig5 ~fig6 ~fig7 (sweep : sweep_row list) =
  let d = Digest.create () in
  List.iter (List.iter (Digest.of_measurement d)) [ fig5; fig6; fig7 ];
  List.iter (fun (app, bs, unopt, opt) -> Digest.string d (Printf.sprintf "%s %d %s %s" app bs unopt opt)) sweep;
  Digest.hex d

(* -- untraced repetition ---------------------------------------------------- *)

let driver_names = [ "fig5"; "fig6"; "fig7"; "block_sweep" ]

(* [driver_s] holds each driver's wall time, in the order of
   {!driver_names}. *)
type rep = { wall_s : float; driver_s : float list; cells : int; checks : Checks.t; digest : string }

let rep ~jobs ~seed expected =
  let checks = Checks.create () in
  let num_nodes = Grid.figure_nodes in
  let figs = Hashtbl.create 4 and sweep_text = ref "" in
  let drivers =
    [
      ("fig5", fun () -> Hashtbl.replace figs "fig5" (E.fig5 ~num_nodes ~jobs Grid.scale));
      ("fig6", fun () -> Hashtbl.replace figs "fig6" (E.fig6 ~num_nodes ~jobs Grid.scale));
      ("fig7", fun () -> Hashtbl.replace figs "fig7" (E.fig7 ~num_nodes ~jobs Grid.scale));
      ("block_sweep", fun () -> sweep_text := E.block_sweep ~num_nodes ~jobs Grid.scale);
    ]
  in
  let took = Hashtbl.create 4 in
  let t0 = now () in
  List.iter
    (fun (name, run) ->
      let s = now () in
      run ();
      Hashtbl.replace took name (now () -. s))
    (shuffle ~seed drivers);
  let wall_s = now () -. t0 in
  let driver_s = List.map (Hashtbl.find took) driver_names in
  let fig id = Hashtbl.find figs id in
  List.iter (fun id -> check_figure checks expected (fig id)) [ "fig5"; "fig6"; "fig7" ];
  check_shapes checks ~fig5:(fig "fig5") ~fig6:(fig "fig6") ~fig7:(fig "fig7");
  let sweep = sweep_rows !sweep_text in
  check_block_sweep checks sweep;
  let rows id = (fig id).E.rows in
  let digest = figures_digest ~fig5:(rows "fig5") ~fig6:(rows "fig6") ~fig7:(rows "fig7") sweep in
  { wall_s; driver_s; cells = List.length Grid.figure_cells; checks; digest }

(* -- traced replay ---------------------------------------------------------- *)

(* What one simulated cell contributed, for the per-layer view. *)
type cell_obs = {
  o_app : string;
  o_protocol : string;
  o_host_s : float;
  o_msgs : int;
  o_bytes : int;
  o_misses : int;
  o_accesses : int;
  o_grants : int;
  o_pblocks : int;
  o_wasted : int;  (** presend redundant + undone *)
  o_conflicts : int;
}

let of_measurement ~app ~protocol ~host_s (m : Measure.measurement) =
  let c = m.Measure.counters in
  let st ?labels n = int_of_float (Measure.stat ?labels m n) in
  let open Ccdsm_tempest.Machine in
  {
    o_app = app;
    o_protocol = protocol;
    o_host_s = host_s;
    o_msgs = c.msgs;
    o_bytes = c.bytes;
    o_misses = c.read_faults + c.write_faults;
    o_accesses = c.local_reads + c.local_writes;
    o_grants =
      st ~labels:[ ("op", "read") ] "ccdsm_presend_grants_total"
      + st ~labels:[ ("op", "write") ] "ccdsm_presend_grants_total";
    o_pblocks = st "ccdsm_presend_blocks_total";
    o_wasted = st "ccdsm_presend_redundant_total" + st "ccdsm_presend_undone_total";
    o_conflicts = st "ccdsm_sched_conflicts";
  }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let measure_cell ~parent (c : Grid.cell) =
  Spans.with_span ~parent
    ~attrs:[ ("app", c.Grid.app); ("protocol", Runtime.protocol_name c.Grid.protocol); ("block", string_of_int c.Grid.block) ]
    "Measure.measure" (fun _ ->
      timed (fun () ->
          Measure.measure ~num_nodes:Grid.figure_nodes ~app:c.Grid.app
            (Measure.version ~label:c.Grid.label ~protocol:c.Grid.protocol ~block_bytes:c.Grid.block
               (Grid.variant_run c.Grid.app))))

type traced = {
  cells : cell_obs list;
  fanouts_s : float;  (** summed wall of the Parjobs fan-outs the cells ran in *)
  t_checks : Checks.t;
  t_digest : Digest.t;  (** every replayed cell, whole *)
  t_figures_digest : string;  (** {!figures_digest} of the replayed rows *)
}

let traced ~jobs ~seed ~root expected =
  let checks = Checks.create () in
  let results = Hashtbl.create 64 in
  let fanouts_s = ref 0.0 in
  List.iter
    (fun (driver, cell_jobs) ->
      let outs, dt =
        Spans.with_span ~parent:root ("Experiments." ^ driver) (fun id ->
            timed (fun () -> Parjobs.map ~jobs (List.map (measure_cell ~parent:id)) cell_jobs))
      in
      fanouts_s := !fanouts_s +. dt;
      List.iter2
        (List.iter2 (fun (c : Grid.cell) r -> Hashtbl.replace results (c.driver, c.label, c.app, c.block) r))
        cell_jobs outs)
    (shuffle ~seed Grid.figure_drivers);
  let in_order =
    List.map (fun (c : Grid.cell) -> (c, Hashtbl.find results (c.driver, c.label, c.app, c.block))) Grid.figure_cells
  in
  let d = Digest.create () in
  List.iter
    (fun ((c : Grid.cell), ((m : Measure.measurement), _)) ->
      Digest.of_measurement d m;
      Checks.check checks
        (Expected.matches expected (Expected.key c.app ~nodes:Grid.figure_nodes ~block:c.block) m.Measure.checksum)
        (Printf.sprintf "replay %s %s %s: checksum" c.driver c.app c.label))
    in_order;
  let rows driver = List.filter_map (fun ((c : Grid.cell), (m, _)) -> if c.driver = driver then Some m else None) in_order in
  let fig id rows = { E.id; title = id; rows; notes = [] } in
  (* fig7 reports the best block size per version, as the driver does. *)
  let best prefix =
    List.filter (fun (m : Measure.measurement) -> String.starts_with ~prefix m.Measure.label) (rows "fig7")
    |> List.fold_left
         (fun acc (m : Measure.measurement) ->
           match acc with Some (b : Measure.measurement) when b.total_us <= m.total_us -> acc | _ -> Some m)
         None
    |> Option.get
  in
  let fig7 = List.map best [ "C** unoptimized"; "C** optimized"; "Splash" ] in
  check_shapes checks ~fig5:(fig "fig5" (rows "fig5")) ~fig6:(fig "fig6" (rows "fig6")) ~fig7:(fig "fig7" fig7);
  (* The block_sweep rows, rendered from the replayed pairs as the driver
     renders them. *)
  let ms (m : Measure.measurement) = Printf.sprintf "%.1f" (m.Measure.total_us /. 1000.0) in
  let rec pairs = function
    | ((c : Grid.cell), (unopt, _)) :: (_, (opt, _)) :: rest -> (c.app, c.block, ms unopt, ms opt) :: pairs rest
    | _ -> []
  in
  let sweep = pairs (List.filter (fun ((c : Grid.cell), _) -> c.driver = "block_sweep") in_order) in
  let figures_digest = figures_digest ~fig5:(rows "fig5") ~fig6:(rows "fig6") ~fig7 sweep in
  let cells =
    List.map
      (fun ((c : Grid.cell), (m, host_s)) ->
        of_measurement
          ~app:(match c.app with "barnes_spmd" -> "barnes" | "water_splash" -> "water" | a -> a)
          ~protocol:(Runtime.protocol_name c.protocol) ~host_s m)
      in_order
  in
  { cells; fanouts_s = !fanouts_s; t_checks = checks; t_digest = d; t_figures_digest = figures_digest }

(* obs.sanitizer_share / obs.metrics_share: re-time a fixed sample of cells
   (8 nodes, as the serve daemon runs them) with the sanitizer or a global
   metrics registry removed.  The configurations take turns within each of
   three rounds, every cell starts from a compacted heap, and each
   configuration keeps its fastest round, so neither heap growth nor host
   drift falls on one configuration.  The sample covers one protocol per
   sanitizer mode family: invalidate (stache, predictive) and commutative. *)
let obs_sample_cells =
  [ ("water", Runtime.Stache, 32); ("water", Runtime.Commutative, 32); ("adaptive", Runtime.Predictive, 32) ]

let with_registry f =
  Obs.set_global (Some (Obs.Registry.create ()));
  Fun.protect ~finally:(fun () -> Obs.set_global None) f

let obs_rounds = 3

let obs_sample ~root ~registry =
  let run (sanitize, reg) (app, protocol, bs) =
    let races, run = Grid.app_run app in
    Gc.compact ();
    Spans.with_span ~parent:root
      ~attrs:
        [ ("app", app); ("protocol", Runtime.protocol_name protocol); ("sanitize", string_of_bool sanitize);
          ("registry", string_of_bool reg) ]
      "obs.sample" (fun _ ->
        let go () =
          snd
            (timed (fun () ->
                 Measure.measure ~num_nodes:Grid.serve_nodes ~sanitize ~check_races:races ~app
                   (Measure.version ~label:app ~protocol ~block_bytes:bs run)))
        in
        if reg then with_registry go else go ())
  in
  (* full, sanitizer off, registry off (when the full run has one) *)
  let configs = (true, registry) :: (false, registry) :: (if registry then [ (true, false) ] else []) in
  let rounds = List.init obs_rounds (fun _ -> List.map (fun cfg -> Stats.sum (List.map (run cfg) obs_sample_cells)) configs) in
  let best i = List.fold_left (fun acc round -> Float.min acc (List.nth round i)) infinity rounds in
  let full = best 0 in
  let share other = (full -. other) /. full in
  (share (best 1), if registry then share (best 2) else 0.0)
