open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Tag = Ccdsm_tempest.Tag

module Obs = Ccdsm_obs.Obs

type entry = Exclusive of int | Shared of Nodeset.t

(* The store is one flat array indexed by block — a get or set is a single
   load, which matters because every demand miss consults the directory. *)
type t = {
  machine : Machine.t;
  mutable entries : entry option array;
  trans : Obs.Counter.t array option;
      (* 4 slots: old_state * 2 + new_state, with exclusive = 0 / shared = 1
         (a block with no explicit entry yet is Exclusive at its home) *)
}

let state_names = [| "exclusive"; "shared" |]

let create machine =
  let trans =
    match Machine.obs machine with
    | None -> None
    | Some reg ->
        Some
          (Array.init 4 (fun i ->
               Obs.Registry.counter reg
                 ~labels:[ ("from", state_names.(i / 2)); ("to", state_names.(i mod 2)) ]
                 "ccdsm_dir_transitions_total"))
  in
  { machine; entries = Array.make 128 None; trans }

let ensure t b =
  if b >= Array.length t.entries then begin
    let cap = max (b + 1) (2 * Array.length t.entries) in
    let entries = Array.make cap None in
    Array.blit t.entries 0 entries 0 (Array.length t.entries);
    t.entries <- entries
  end

let get t b =
  let es = t.entries in
  if b >= 0 && b < Array.length es then
    match Array.unsafe_get es b with
    | Some e -> e
    | None -> Exclusive (Machine.home t.machine b)
  else Exclusive (Machine.home t.machine b)
  (* [Machine.home] validates [b], so out-of-range blocks still raise. *)

let state_index = function Exclusive _ -> 0 | Shared _ -> 1

let set t b e =
  ensure t b;
  (match t.trans with
  | Some ctrs ->
      let old = match t.entries.(b) with Some prev -> state_index prev | None -> 0 in
      Obs.Counter.inc ctrs.((old * 2) + state_index e)
  | None -> ());
  t.entries.(b) <- Some e

let holders t b =
  match get t b with Exclusive o -> Nodeset.singleton o | Shared readers -> readers

let check_invariant t b =
  let m = t.machine in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  match get t b with
  | Exclusive o ->
      let bad = ref None in
      for n = 0 to Machine.num_nodes m - 1 do
        let tg = Machine.tag m ~node:n b in
        if n = o && not (Tag.equal tg Tag.Read_write) then
          bad := Some (n, tg, "owner must be ReadWrite")
        else if n <> o && not (Tag.equal tg Tag.Invalid) then
          bad := Some (n, tg, "non-owner must be Invalid")
      done;
      (match !bad with
      | None -> Ok ()
      | Some (n, tg, why) -> fail "block %d Exclusive %d: node %d is %a (%s)" b o n Tag.pp tg why)
  | Shared readers ->
      if Nodeset.is_empty readers then fail "block %d Shared with empty reader set" b
      else begin
        let bad = ref None in
        for n = 0 to Machine.num_nodes m - 1 do
          let tg = Machine.tag m ~node:n b in
          if Nodeset.mem n readers && not (Tag.equal tg Tag.Read_only) then
            bad := Some (n, tg, "reader must be ReadOnly")
          else if (not (Nodeset.mem n readers)) && not (Tag.equal tg Tag.Invalid) then
            bad := Some (n, tg, "non-reader must be Invalid")
        done;
        match !bad with
        | None -> Ok ()
        | Some (n, tg, why) -> fail "block %d Shared: node %d is %a (%s)" b n Tag.pp tg why
      end
