(* The `repro check` driver: fan a matrix of verification configurations
   over domains and render one result table.

   Each cell is an independent bounded exploration (its own machine, its own
   sanitizer), so the matrix parallelizes exactly like the experiment
   versions do — Parjobs.map, joined in input order, byte-identical output
   at any job count. *)

module Model = Ccdsm_check.Model
module Explore = Ccdsm_check.Explore

type cell = { cfg : Model.config; depth : int; outcome : Explore.outcome }

let matrix ?protocols ?(faults = true) ?(nodes = 3) ?(blocks = 2) () =
  let protocols = match protocols with Some ps -> ps | None -> Model.all_protocols in
  let base protocol = Model.default_config ~protocol ~nodes ~blocks () in
  let fault_rows =
    if faults then List.map (fun p -> { (base p) with Model.faults = true }) protocols
    else []
  in
  List.map base protocols @ fault_rows

let run ?jobs ?seed ?(depth = 4) configs =
  Parjobs.map ?jobs
    (fun cfg ->
      (* Fault alphabets multiply the branching factor; keep the faulted
         cells one level shallower so the default matrix stays interactive
         while still covering every fault branch from every fault-free
         state at depth-1. *)
      let depth = if cfg.Model.faults then max 1 (depth - 1) else depth in
      { cfg; depth; outcome = Explore.run ?seed ~max_depth:depth cfg })
    configs

let render cells =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "%-12s %-7s %6s %7s %10s %10s  %s" "protocol" "faults" "nodes" "blocks" "depth"
    "states" "result";
  line "%s" (String.make 67 '-');
  List.iter
    (fun c ->
      let states, result =
        match c.outcome with
        | Explore.Pass { states; candidates } ->
            (string_of_int states, Printf.sprintf "ok (%d replays)" candidates)
        | Explore.Fail cex ->
            ("-", Printf.sprintf "FAIL: %d-op counterexample" (List.length cex.Explore.ops))
      in
      line "%-12s %-7s %6d %7d %10d %10s  %s"
        (Model.protocol_name c.cfg.Model.protocol)
        (if c.cfg.Model.faults then "on" else "off")
        c.cfg.Model.nodes c.cfg.Model.blocks c.depth states result)
    cells;
  Buffer.contents buf

let failures cells =
  List.filter_map
    (fun c -> match c.outcome with Explore.Fail cex -> Some cex | Explore.Pass _ -> None)
    cells
