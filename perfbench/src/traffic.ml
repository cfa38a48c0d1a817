(* The serve workload's request list, generated from the seed before the
   daemon starts.  Class sizes are fixed and only the order and the picks
   within a class depend on the seed, so every seed costs the daemon the
   same work.

   - cold: every distinct sim spec of the mix (all five protocols on
     Adaptive at 32 B, where faults dominate, and on Water at 1024 B, where
     bulk traffic does; Barnes under write_update and commutative at
     1024 B; nodes 8) plus the first predict of Adaptive and Water, which
     builds that app's reuse-distance profile.  The mix is kept to a few
     seconds of daemon time so that one run holds several repetitions:
     Barnes under the three invalidation protocols (2.1-2.4 s each,
     sanitized) and its 6-7 s profile build are left out, and the traced
     run times the Barnes profile in-process (Rdist_probe).
   - warm: repeats of cold sims (cache hits), predict what-ifs at every
     other block size (a pool job that reads the precomputed grid) and
     their repeats, plus a share of malformed or unresolvable specs that
     must come back as structured errors. *)

type kind = Sim | Predict | Bad

type req = {
  id : int;
  line : string;
  kind : kind;
  cold : bool;
  app : string;
  protocol : string;
  block : int;
}

let apps = [ "adaptive"; "barnes"; "water" ]
let protocols = [ "stache"; "write_update"; "predictive"; "migratory"; "commutative" ]

(* The sim specs of the mix, as (app, protocol, block). *)
let sim_specs =
  List.concat_map (fun p -> [ ("adaptive", p, 32); ("water", p, 1024) ]) protocols
  @ [ ("barnes", "write_update", 1024); ("barnes", "commutative", 1024) ]

let sim_blocks app =
  List.sort_uniq compare (List.filter_map (fun (a, _, b) -> if a = app then Some b else None) sim_specs)

(* Predicts use the stache model throughout, so a what-if at another block
   size reads the grid the cold predict built. *)
let predict_protocol = "stache"
let predict_apps = [ "adaptive"; "water" ]
let predict_cold_block = 32
let predict_blocks = List.init 14 (fun i -> 8 lsl i)
let warm_sim_repeats = 400
let warm_predicts = 150
let warm_bad = 30

let sim_line ~id ~app ~protocol ~block =
  Printf.sprintf "{\"id\":%d,\"app\":\"%s\",\"protocol\":\"%s\",\"nodes\":8,\"block_bytes\":%d}" id app
    protocol block

let predict_line ~id ~app ~block =
  Printf.sprintf "{\"id\":%d,\"kind\":\"predict\",\"app\":\"%s\",\"protocol\":\"%s\",\"nodes\":8,\"block_bytes\":%d}"
    id app predict_protocol block

let bad_templates =
  [|
    (fun id -> Printf.sprintf "{\"id\":%d,\"app\":\"water\",\"protocol\":\"dragon\"}" id);
    (fun id -> Printf.sprintf "{\"id\":%d,\"app\":\"ocean\",\"protocol\":\"stache\"}" id);
    (fun id -> Printf.sprintf "{\"id\":%d,\"app\":\"water\",\"protocol\":\"stache\",\"block_bytes\":48}" id);
    (fun id -> Printf.sprintf "{\"id\":%d,\"app\":\"water\",\"protocol\":\"stache\",\"colour\":1}" id);
    (fun id -> Printf.sprintf "{\"id\":%d,\"kind\":\"predict\",\"app\":\"water\",\"protocol\":\"write_update\"}" id);
    (fun id -> Printf.sprintf "{\"id\":%d,\"app\":\"water\"," id);
  |]

type spec = { s_kind : kind; s_app : string; s_protocol : string; s_block : int; s_bad : int }

let sim app protocol block = { s_kind = Sim; s_app = app; s_protocol = protocol; s_block = block; s_bad = -1 }
let predict app block = { s_kind = Predict; s_app = app; s_protocol = predict_protocol; s_block = block; s_bad = -1 }

let shuffle rng l =
  let a = Array.of_list l in
  Ccdsm_util.Prng.shuffle rng a;
  Array.to_list a

let pick rng l = List.nth l (Ccdsm_util.Prng.int rng (List.length l))

let generate ~seed =
  let rng = Ccdsm_util.Prng.create ~seed in
  let cold_sims = List.map (fun (app, p, block) -> sim app p block) sim_specs in
  let cold = List.map (fun a -> predict a predict_cold_block) predict_apps @ shuffle rng cold_sims in
  let what_ifs =
    List.concat_map
      (fun app -> List.filter_map (fun b -> if b = predict_cold_block then None else Some (predict app b)) predict_blocks)
      predict_apps
  in
  let all_predicts = List.map (fun a -> predict a predict_cold_block) predict_apps @ what_ifs in
  let warm =
    List.init warm_sim_repeats (fun _ -> pick rng cold_sims)
    @ what_ifs
    @ List.init (warm_predicts - List.length what_ifs) (fun _ -> pick rng all_predicts)
    @ List.init warm_bad (fun i ->
          { (sim "water" "stache" 32) with s_kind = Bad; s_bad = (i + Ccdsm_util.Prng.int rng 6) mod 6 })
  in
  (* What-ifs must come after the cold predict of their app, which holds:
     the warm phase starts once every cold request is answered. *)
  let warm = shuffle rng warm in
  List.mapi
    (fun i (s, cold) ->
      let id = i + 1 in
      let line =
        match s.s_kind with
        | Sim -> sim_line ~id ~app:s.s_app ~protocol:s.s_protocol ~block:s.s_block
        | Predict -> predict_line ~id ~app:s.s_app ~block:s.s_block
        | Bad -> bad_templates.(s.s_bad) id
      in
      { id; line; kind = s.s_kind; cold; app = s.s_app; protocol = s.s_protocol; block = s.s_block })
    (List.map (fun s -> (s, true)) cold @ List.map (fun s -> (s, false)) warm)

let digest reqs =
  List.fold_left (fun h r -> Ccdsm_util.Fnv.feed_string h (r.line ^ "\n")) Ccdsm_util.Fnv.init reqs
  |> Ccdsm_util.Fnv.to_hex

let timeline_line ~id = Printf.sprintf "{\"id\":%d,\"kind\":\"timeline\"}" id

(* The capture probe's sims, one per sanitizer mode family and app, each a
   few hundred ms.  Its daemon runs with --slow-ms 1, far below any sim, so
   every one of them is flagged slow and captured on any host. *)
let probe_slow_ms = 1.0

let probe =
  List.mapi
    (fun i (app, protocol, block) ->
      { id = i + 1; line = sim_line ~id:(i + 1) ~app ~protocol ~block; kind = Sim; cold = true; app; protocol; block })
    [ ("adaptive", "stache", 1024); ("barnes", "write_update", 1024); ("water", "commutative", 1024) ]
