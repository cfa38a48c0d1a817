module Faults = Ccdsm_tempest.Faults
module Fnv = Ccdsm_util.Fnv
module Json = Ccdsm_util.Json

type spec = {
  kind : [ `Sim | `Predict | `Timeline ];
  app : string;
  protocol : string;
  nodes : int;
  block_bytes : int;
  migratory_threshold : int;
  faults : Faults.plan option;
  scale : [ `Scaled | `Paper ];
}

type request = { id : string option; spec : spec }

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* -- spec extraction ------------------------------------------------------ *)

let known_keys =
  [ "id"; "kind"; "app"; "protocol"; "nodes"; "block_bytes"; "migratory_threshold"; "faults"; "scale" ]

(* Integral floats such as 8.0 count as integers. *)
let int_range key lo hi v =
  match Json.float v with
  | Ok f when Float.is_integer f && f >= float_of_int lo && f <= float_of_int hi -> int_of_float f
  | Ok _ -> bad "%S must be an integer in [%d, %d]" key lo hi
  | Error _ -> bad "%S must be an integer" key

let is_pow2 x = x > 0 && x land (x - 1) = 0

let parse line =
  match Json.parse line with
  | Error msg -> Error ("bad job spec: " ^ msg)
  | Ok j -> (
      try
        let fields = match j with Json.Object fields -> fields | _ -> bad "expected a JSON object" in
        if List.exists (function _, (Json.Object _ | Json.Array _) -> true | _ -> false) fields then
          bad "nested objects/arrays are not allowed in a job spec";
        (match List.find_opt (fun (k, _) -> not (List.mem k known_keys)) fields with
        | Some (k, _) ->
            bad "unknown key %S (known keys: %s)" k (String.concat ", " known_keys)
        | None -> ());
        let get key = List.assoc_opt key fields in
        let str key =
          match get key with
          | Some (Json.String s) -> Some s
          | Some _ -> bad "%S must be a string" key
          | None -> None
        in
        let require_str key =
          match str key with
          | Some s when s <> "" -> s
          | Some _ -> bad "%S must be non-empty" key
          | None -> bad "missing required key %S" key
        in
        let int_opt key ~default lo hi =
          match get key with Some v -> int_range key lo hi v | None -> default
        in
        let kind =
          match str "kind" with
          | None | Some "sim" -> `Sim
          | Some "predict" -> `Predict
          | Some "timeline" -> `Timeline
          | Some other ->
              bad "\"kind\" must be \"sim\", \"predict\" or \"timeline\" (got %S)" other
        in
        (* A timeline job queries daemon state (the slow-job ring), so it
           takes no simulation parameters: anything beyond id/kind is a
           mistake worth flagging rather than silently ignoring. *)
        if kind = `Timeline then
          List.iter
            (fun (k, _) ->
              if k <> "id" && k <> "kind" then
                bad "timeline jobs take no %S (only \"id\" and \"kind\")" k)
            fields;
        let require_str key = if kind = `Timeline then "" else require_str key in
        let app = require_str "app" in
        let protocol = require_str "protocol" in
        let nodes = int_opt "nodes" ~default:8 1 Ccdsm_util.Nodeset.max_nodes in
        let block_bytes = int_opt "block_bytes" ~default:32 8 65536 in
        if not (is_pow2 block_bytes) then bad "\"block_bytes\" must be a power of two >= 8";
        let migratory_threshold = int_opt "migratory_threshold" ~default:1 1 1_000_000 in
        let faults =
          match str "faults" with
          | None -> None
          | Some s -> (
              match Faults.of_string s with
              | Ok p -> if Faults.is_zero p then None else Some p
              | Error msg -> bad "\"faults\": %s" msg)
        in
        let scale =
          match str "scale" with
          | None | Some "scaled" -> `Scaled
          | Some "paper" -> `Paper
          | Some other -> bad "\"scale\" must be \"scaled\" or \"paper\" (got %S)" other
        in
        let id =
          match get "id" with
          | None -> None
          | Some (Json.String s) -> Some (Json.quote s)
          | Some (Json.Int i) -> Some (Ccdsm_obs.Obs.float_to_string (float_of_int i))
          | Some (Json.Float f) -> Some (Ccdsm_obs.Obs.float_to_string f)
          | Some (Json.Bool b) -> Some (string_of_bool b)
          | Some _ -> Some "null"
        in
        Ok
          {
            id;
            spec = { kind; app; protocol; nodes; block_bytes; migratory_threshold; faults; scale };
          }
      with Bad msg -> Error ("bad job spec: " ^ msg))

(* -- canonical form and content address ----------------------------------- *)

let canonical spec =
  (* Fixed key order, defaults filled in, [id] excluded: two requests for the
     same simulation canonicalize to the same bytes no matter how the client
     spelled them, which is what makes the FNV content address a cache key. *)
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"app\":";
  Buffer.add_string buf (Json.quote (String.lowercase_ascii spec.app));
  Buffer.add_string buf (Printf.sprintf ",\"block_bytes\":%d" spec.block_bytes);
  (match spec.faults with
  | None -> ()
  | Some p ->
      Buffer.add_string buf ",\"faults\":";
      Buffer.add_string buf (Json.quote (Faults.to_string p)));
  (* [kind] is rendered only for predict jobs so sim canonicals (and their
     content addresses) are unchanged from before the key existed. *)
  (match spec.kind with
  | `Sim -> ()
  | `Predict -> Buffer.add_string buf ",\"kind\":\"predict\""
  | `Timeline -> Buffer.add_string buf ",\"kind\":\"timeline\"");
  Buffer.add_string buf (Printf.sprintf ",\"migratory_threshold\":%d" spec.migratory_threshold);
  Buffer.add_string buf (Printf.sprintf ",\"nodes\":%d" spec.nodes);
  Buffer.add_string buf ",\"protocol\":";
  Buffer.add_string buf (Json.quote spec.protocol);
  Buffer.add_string buf
    (Printf.sprintf ",\"scale\":\"%s\"" (match spec.scale with `Scaled -> "scaled" | `Paper -> "paper"));
  Buffer.add_char buf '}';
  Buffer.contents buf

let digest spec = Fnv.digest_string (canonical spec)

(* Predict keys carry a visible namespace prefix on top of the canonical
   form's "kind" discrimination: a predict result can never be mistaken for
   (or collide with) a simulation of the same configuration, and operators
   can tell the two apart in logs. *)
let escape_to_json = Json.quote

let key spec =
  (match spec.kind with `Sim -> "" | `Predict -> "predict:" | `Timeline -> "timeline:")
  ^ Fnv.to_hex (digest spec)
