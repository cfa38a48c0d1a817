(* Host metadata and process memory, read from /proc. *)

let read_file path = try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* Peak resident set (VmHWM) of a live process, in kB. *)
let vm_hwm_kb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match read_file path with
  | None -> None
  | Some text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> (
                 match String.split_on_char ' ' (String.trim v) with
                 | n :: _ -> int_of_string_opt n
                 | [] -> None)
             | _ -> None)

let loadavg () =
  match read_file "/proc/loadavg" with
  | Some s -> (
      match String.split_on_char ' ' s with a :: b :: c :: _ -> Printf.sprintf "%s %s %s" a b c | _ -> "?")
  | None -> "?"

let nproc () = Domain.recommended_domain_count ()

(* The checkout the benchmark runs in need not be a git repository; the
   commit is read from .git when there is one, and the source digest always
   identifies the code measured. *)
let commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
      let head = String.trim head in
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" -> (
          let r = String.sub head (i + 1) (String.length head - i - 1) in
          match read_file (Filename.concat ".git" r) with Some c -> String.trim c | None -> "unknown")
      | _ -> head)

let rec source_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.sort compare names;
      Array.to_list names
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then source_files p
             else if Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli" then [ p ]
             else [])

let source_digest () =
  List.fold_left
    (fun h p ->
      match read_file p with
      | Some text -> Ccdsm_util.Fnv.feed_string (Ccdsm_util.Fnv.feed_string h p) text
      | None -> h)
    Ccdsm_util.Fnv.init
    (source_files "lib" @ source_files "bin")
  |> Ccdsm_util.Fnv.to_hex
