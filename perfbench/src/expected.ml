(* The committed table of expected outputs: per (app, nodes, block, scale)
   the final shared-heap digest and the app's own checksum.  Both are the
   same under every coherence protocol (protocols are cost models over one
   heap), so a change to protocol costs never trips the check — only a
   change to what the applications compute does.  [app] is the sweep
   table's lower-case name, or a variant ([barnes_spmd], [water_splash]) for
   the figure versions that run a different program. *)

type key = { app : string; nodes : int; block : int; scale : string }
type entry = { digest : int64 option; checksum : float }
type t = (key, entry) Hashtbl.t

let key ?(scale = "scaled") app ~nodes ~block = { app = String.lowercase_ascii app; nodes; block; scale }

let parse_line line =
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | [ app; nodes; block; scale; digest; checksum ] -> (
      match (int_of_string_opt nodes, int_of_string_opt block, float_of_string_opt checksum) with
      | Some nodes, Some block, Some checksum ->
          let digest =
            if digest = "-" then Ok None
            else
              match Int64.of_string_opt ("0x" ^ digest) with
              | Some d -> Ok (Some d)
              | None -> Error ("bad digest " ^ digest)
          in
          Result.map (fun digest -> (key ~scale app ~nodes ~block, { digest; checksum })) digest
      | _ -> Error ("bad numbers in: " ^ line))
  | _ -> Error ("expected 6 fields in: " ^ line)

let of_string text : (t, string) result =
  let tbl = Hashtbl.create 64 in
  let rec go = function
    | [] -> Ok tbl
    | line :: rest ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go rest
        else (
          match parse_line line with
          | Ok (k, e) ->
              Hashtbl.replace tbl k e;
              go rest
          | Error _ as e -> e)
  in
  go (String.split_on_char '\n' text)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

let header = "# app nodes block scale heap-digest checksum (regenerate: bench.exe expect)"

let line k e =
  Printf.sprintf "%s %d %d %s %s %.17g" k.app k.nodes k.block k.scale
    (match e.digest with None -> "-" | Some d -> Ccdsm_util.Fnv.to_hex d)
    e.checksum

let to_string (t : t) =
  let rows = Hashtbl.fold (fun k e acc -> line k e :: acc) t [] |> List.sort compare in
  String.concat "\n" (header :: rows) ^ "\n"

(* A checksum matches bit for bit; a digest is compared only when both the
   table and the caller have one. *)
let matches (t : t) k ?digest checksum =
  match Hashtbl.find_opt t k with
  | None -> false
  | Some e ->
      Int64.equal (Int64.bits_of_float e.checksum) (Int64.bits_of_float checksum)
      && (match (e.digest, digest) with Some a, Some b -> Int64.equal a b | _ -> true)

(* The serve daemon renders checksums with [Obs.float_to_string]; compare
   in that rendering. *)
let matches_rendered (t : t) k ~digest checksum_text =
  match Hashtbl.find_opt t k with
  | Some { digest = Some d; checksum } ->
      Int64.equal d digest && Ccdsm_obs.Obs.float_to_string checksum = checksum_text
  | _ -> false
