(* Trace-replay oracle: feed a recorded JSONL trace back through the
   sanitizer.

   A trace written with [repro --trace] (or any Trace JSONL sink) is a
   claim about what the protocol did.  This oracle re-validates the claim
   offline: it reconstructs a mirror machine from the Init/Alloc events,
   maintains the mirror's tags from the Tag_change events — checking that
   each event's [before] tag matches what the mirror actually holds, a
   per-node conformance check no online subscriber can do after the fact —
   and pushes every event through a detached Sanitizer.create/feed pair so
   all transition-level invariants (SWMR, message sanity, presend-vs-
   schedule, drop/retry bookkeeping) run again.

   A file may contain several machine segments (each opened by an Init
   event); each gets a fresh mirror and a fresh sanitizer.  Directory
   agreement is not checked — the directory is protocol-internal state that
   the trace does not carry. *)

module Machine = Ccdsm_tempest.Machine
module Trace = Ccdsm_tempest.Trace
module Sanitizer = Ccdsm_proto.Sanitizer

type report = {
  machines : int;  (* Init-delimited segments validated *)
  events : int;  (* events fed through the sanitizer *)
  skipped : int;  (* blank lines *)
}

type error = { line : int; message : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.message

type state = { mirror : Machine.t; san : Sanitizer.t }

let run ?(mode = Sanitizer.Invalidate) lines =
  let st = ref None in
  let machines = ref 0 and events = ref 0 and skipped = ref 0 in
  let err = ref None in
  let fail line fmt = Format.kasprintf (fun m -> err := Some { line; message = m }) fmt in
  let feed line (ev : Trace.event) =
    match ev with
    | Trace.Init { nodes; block_bytes } ->
        (* A new machine segment: fresh mirror, fresh sanitizer. *)
        let mirror =
          Machine.create (Machine.default_config ~num_nodes:nodes ~block_bytes ())
        in
        st := Some { mirror; san = Sanitizer.create ~mode mirror };
        incr machines
    | _ -> (
        match !st with
        | None -> fail line "event before any init record: %s" (Trace.type_name ev)
        | Some { mirror; san } -> (
            (match ev with
            | Trace.Alloc { first_block; blocks; home } ->
                if first_block <> Machine.num_blocks mirror then
                  fail line "alloc at block %d but mirror has %d blocks" first_block
                    (Machine.num_blocks mirror)
                else
                  ignore
                    (Machine.alloc mirror ~words:(blocks * Machine.words_per_block mirror)
                       ~home)
            | Trace.Tag_change { node; block; before; after } ->
                if block >= Machine.num_blocks mirror then
                  fail line "tag change on unallocated block %d" block
                else begin
                  let held = Machine.tag mirror ~node block in
                  if held <> before then
                    fail line "tag change on n%d b%d claims before=%c but mirror holds %c"
                      node block (Ccdsm_tempest.Tag.to_char before)
                      (Ccdsm_tempest.Tag.to_char held)
                  else Machine.set_tag mirror ~node block after
                end
            | _ -> ());
            if !err = None then begin
              match Sanitizer.feed san ev with
              | () -> incr events
              | exception Sanitizer.Violation v ->
                  fail line "%s" (Sanitizer.to_string v)
            end))
  in
  (try
     List.iteri
       (fun i line ->
         if !err = None then begin
           let lineno = i + 1 in
           if String.trim line = "" then incr skipped
           else
             match Trace.of_json line with
             | Ok ev -> (
                 (* A mirror rejecting a forged value fails on its line. *)
                 try feed lineno ev with Invalid_argument m -> fail lineno "%s" m)
             | Error m -> fail lineno "%s" m
         end)
       lines
   with e -> err := Some { line = 0; message = Printexc.to_string e });
  match !err with
  | Some e -> Error e
  | None -> Ok { machines = !machines; events = !events; skipped = !skipped }

let file ?mode path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  run ?mode lines
