(* Unit and property tests for the utility layer. *)

open Ccdsm_util

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* -- Prng ----------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr equal
  done;
  Alcotest.(check bool) "streams differ" true (!equal < 4)

let test_prng_copy () =
  let a = Prng.create ~seed:7 in
  let _ = Prng.bits64 a in
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split () =
  let a = Prng.create ~seed:7 in
  let b = Prng.split a in
  Alcotest.(check bool) "split stream differs" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_int_range =
  qtest "Prng.int in range"
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 10000))
    (fun (bound, seed) ->
      let g = Prng.create ~seed in
      let x = Prng.int g bound in
      x >= 0 && x < bound)

let test_prng_float_range =
  qtest "Prng.float in range"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let g = Prng.create ~seed in
      let x = Prng.float g 3.5 in
      x >= 0.0 && x < 3.5)

let test_prng_gaussian_moments () =
  let g = Prng.create ~seed:11 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Prng.gaussian g) in
  let s = Stats.summarize xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs s.Stats.mean < 0.05);
  Alcotest.(check bool) "sd near 1" true (Float.abs (s.Stats.stddev -. 1.0) < 0.05)

let test_prng_shuffle_permutation =
  qtest "shuffle is a permutation"
    QCheck2.Gen.(pair (int_range 0 50) (int_range 0 10000))
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let a = Array.init n (fun i -> i) in
      Prng.shuffle g a;
      let sorted = Array.copy a in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

(* -- Bitvec --------------------------------------------------------------- *)

let test_bitvec_basic () =
  let v = Bitvec.create 13 in
  Alcotest.(check bool) "fresh empty" true (Bitvec.is_empty v);
  Bitvec.set v 0;
  Bitvec.set v 12;
  Alcotest.(check bool) "get 0" true (Bitvec.get v 0);
  Alcotest.(check bool) "get 12" true (Bitvec.get v 12);
  Alcotest.(check bool) "get 5" false (Bitvec.get v 5);
  check Alcotest.int "count" 2 (Bitvec.count v);
  Bitvec.clear v 0;
  check Alcotest.int "count after clear" 1 (Bitvec.count v);
  check Alcotest.(list int) "to_list" [ 12 ] (Bitvec.to_list v)

let test_bitvec_bounds () =
  let v = Bitvec.create 8 in
  Alcotest.check_raises "negative index" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> Bitvec.set v (-1));
  Alcotest.check_raises "past end" (Invalid_argument "Bitvec: index out of bounds") (fun () ->
      ignore (Bitvec.get v 8))

let test_bitvec_union_change () =
  let a = Bitvec.of_list 10 [ 1; 3 ] and b = Bitvec.of_list 10 [ 3; 7 ] in
  Alcotest.(check bool) "union changes" true (Bitvec.union_into ~dst:a b);
  check Alcotest.(list int) "union result" [ 1; 3; 7 ] (Bitvec.to_list a);
  Alcotest.(check bool) "union idempotent" false (Bitvec.union_into ~dst:a b)

let test_bitvec_diff_inter () =
  let a = Bitvec.of_list 10 [ 1; 3; 7 ] in
  let b = Bitvec.of_list 10 [ 3 ] in
  Alcotest.(check bool) "diff changes" true (Bitvec.diff_into ~dst:a b);
  check Alcotest.(list int) "diff result" [ 1; 7 ] (Bitvec.to_list a);
  let c = Bitvec.of_list 10 [ 1; 2 ] in
  Alcotest.(check bool) "inter changes" true (Bitvec.inter_into ~dst:a c);
  check Alcotest.(list int) "inter result" [ 1 ] (Bitvec.to_list a)

let test_bitvec_fill () =
  let v = Bitvec.create 11 in
  Bitvec.fill v true;
  check Alcotest.int "all set" 11 (Bitvec.count v);
  Bitvec.fill v false;
  Alcotest.(check bool) "all clear" true (Bitvec.is_empty v)

let test_bitvec_fill_canonical () =
  (* Padding bits must stay clear so equal sets compare equal. *)
  let a = Bitvec.create 11 in
  Bitvec.fill a true;
  let b = Bitvec.of_list 11 [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  Alcotest.(check bool) "fill equals of_list" true (Bitvec.equal a b)

let bitvec_gen =
  QCheck2.Gen.(
    let* n = int_range 1 64 in
    let* l = list_size (int_range 0 32) (int_range 0 (n - 1)) in
    return (n, l))

let test_bitvec_roundtrip =
  qtest "of_list/to_list roundtrip" bitvec_gen (fun (n, l) ->
      let v = Bitvec.of_list n l in
      Bitvec.to_list v = List.sort_uniq compare l)

let test_bitvec_union_commutes =
  qtest "union commutes"
    QCheck2.Gen.(
      let* n = int_range 1 40 in
      let* l1 = list_size (int_range 0 20) (int_range 0 (n - 1)) in
      let* l2 = list_size (int_range 0 20) (int_range 0 (n - 1)) in
      return (n, l1, l2))
    (fun (n, l1, l2) ->
      let a = Bitvec.of_list n l1 and b = Bitvec.of_list n l2 in
      let ab = Bitvec.copy a in
      ignore (Bitvec.union_into ~dst:ab b);
      let ba = Bitvec.copy b in
      ignore (Bitvec.union_into ~dst:ba a);
      Bitvec.equal ab ba)

(* -- Nodeset -------------------------------------------------------------- *)

let test_nodeset_basic () =
  let s = Nodeset.of_list [ 3; 1; 4; 1 ] in
  check Alcotest.int "cardinal dedupes" 3 (Nodeset.cardinal s);
  Alcotest.(check bool) "mem 4" true (Nodeset.mem 4 s);
  Alcotest.(check bool) "mem 2" false (Nodeset.mem 2 s);
  check Alcotest.(list int) "elements sorted" [ 1; 3; 4 ] (Nodeset.elements s);
  check Alcotest.int "choose = min" 1 (Nodeset.choose s)

let test_nodeset_ops () =
  let a = Nodeset.of_list [ 0; 1; 2 ] and b = Nodeset.of_list [ 2; 3 ] in
  check Alcotest.(list int) "union" [ 0; 1; 2; 3 ] (Nodeset.elements (Nodeset.union a b));
  check Alcotest.(list int) "inter" [ 2 ] (Nodeset.elements (Nodeset.inter a b));
  check Alcotest.(list int) "diff" [ 0; 1 ] (Nodeset.elements (Nodeset.diff a b));
  Alcotest.(check bool) "subset" true (Nodeset.subset (Nodeset.singleton 2) a);
  Alcotest.(check bool) "not subset" false (Nodeset.subset b a)

let test_nodeset_bounds () =
  Alcotest.check_raises "too large" (Invalid_argument "Nodeset: node id out of range") (fun () ->
      ignore (Nodeset.singleton Nodeset.max_nodes));
  Alcotest.check_raises "negative" (Invalid_argument "Nodeset: node id out of range") (fun () ->
      ignore (Nodeset.mem (-1) Nodeset.empty));
  (* The full 1024-node range is representable. *)
  let top = Nodeset.max_nodes - 1 in
  let s = Nodeset.add 0 (Nodeset.singleton top) in
  Alcotest.(check bool) "mem top" true (Nodeset.mem top s);
  check Alcotest.int "cardinal" 2 (Nodeset.cardinal s);
  check Alcotest.(list int) "elements" [ 0; top ] (Nodeset.elements s)

let test_nodeset_canonical () =
  (* The byte-string representation is canonical (no trailing zero bytes),
     so structural equality is set equality — the model checker and hash
     tables rely on this. *)
  let a = Nodeset.remove 100 (Nodeset.add 100 (Nodeset.singleton 3)) in
  Alcotest.(check bool) "remove renormalizes" true (a = Nodeset.singleton 3);
  let b = Nodeset.diff (Nodeset.of_list [ 3; 200 ]) (Nodeset.singleton 200) in
  Alcotest.(check bool) "diff renormalizes" true (b = Nodeset.singleton 3);
  let c = Nodeset.inter (Nodeset.of_list [ 3; 900 ]) (Nodeset.of_list [ 3; 901 ]) in
  Alcotest.(check bool) "inter renormalizes" true (c = Nodeset.singleton 3);
  Alcotest.(check bool) "empty inter" true
    (Nodeset.inter (Nodeset.singleton 512) (Nodeset.singleton 3) = Nodeset.empty)

let test_nodeset_remove_choose_empty () =
  let s = Nodeset.remove 5 (Nodeset.singleton 5) in
  Alcotest.(check bool) "empty after remove" true (Nodeset.is_empty s);
  Alcotest.check_raises "choose empty" Not_found (fun () -> ignore (Nodeset.choose s))

(* -- Stats ---------------------------------------------------------------- *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "mean" 2.5 s.Stats.mean;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 4.0 s.Stats.max;
  check (Alcotest.float 1e-9) "total" 10.0 s.Stats.total;
  check (Alcotest.float 1e-6) "stddev" (sqrt 1.25) s.Stats.stddev

let test_stats_max_index () =
  check Alcotest.int "max index" 2 (Stats.max_index [| 1.0; 5.0; 9.0; 9.0 |])

let test_stats_relative () =
  check (Alcotest.float 1e-9) "relative" 1.5 (Stats.relative ~baseline:2.0 3.0);
  Alcotest.check_raises "zero baseline" (Invalid_argument "Stats.relative: zero baseline")
    (fun () -> ignore (Stats.relative ~baseline:0.0 1.0))

let test_stats_empty () =
  Alcotest.check_raises "empty summarize" (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (Stats.summarize [||]))

let test_stats_quantile () =
  let a = [| 4.0; 1.0; 3.0; 2.0 |] in
  (* Sorted-array linear interpolation: h = (n-1)q over [1;2;3;4]. *)
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.quantile a 0.0);
  check (Alcotest.float 1e-9) "p50" 2.5 (Stats.quantile a 0.5);
  check (Alcotest.float 1e-9) "p100" 4.0 (Stats.quantile a 1.0);
  check (Alcotest.float 1e-9) "p25 exact rank" 1.75 (Stats.quantile a 0.25);
  check (Alcotest.float 1e-9) "singleton" 7.0 (Stats.quantile [| 7.0 |] 0.95);
  (* Input must not be mutated (quantile sorts a copy). *)
  Alcotest.(check (array (float 0.0))) "input untouched" [| 4.0; 1.0; 3.0; 2.0 |] a;
  let qs = Stats.quantiles a [ 0.5; 0.95 ] in
  check (Alcotest.float 1e-9) "quantiles p50" 2.5 (List.assoc 0.5 qs);
  check (Alcotest.float 1e-9) "quantiles p95" 3.85 (List.assoc 0.95 qs)

let test_stats_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty") (fun () ->
      ignore (Stats.quantile [||] 0.5));
  Alcotest.check_raises "q out of range" (Invalid_argument "Stats.quantile: q outside [0,1]")
    (fun () -> ignore (Stats.quantile [| 1.0 |] 1.5))

let test_stats_stddev_sample () =
  (* Sample (n-1) stddev of [1;2;3;4]: variance 5/3. *)
  check (Alcotest.float 1e-9) "sample stddev" (sqrt (5.0 /. 3.0))
    (Stats.stddev_sample [| 1.0; 2.0; 3.0; 4.0 |]);
  check (Alcotest.float 1e-9) "n<2 is 0" 0.0 (Stats.stddev_sample [| 42.0 |]);
  check (Alcotest.float 1e-9) "constant" 0.0 (Stats.stddev_sample [| 3.0; 3.0; 3.0 |])

(* -- Vec3 ----------------------------------------------------------------- *)

let test_vec3_algebra () =
  let a = Vec3.make 1.0 2.0 3.0 and b = Vec3.make (-1.0) 0.5 2.0 in
  Alcotest.(check bool) "add/sub inverse" true
    (Vec3.equal ~eps:1e-12 a (Vec3.sub (Vec3.add a b) b));
  check (Alcotest.float 1e-12) "dot" 6.0 (Vec3.dot a b);
  check (Alcotest.float 1e-12) "norm2" 14.0 (Vec3.norm2 a);
  Alcotest.(check bool) "axpy" true
    (Vec3.equal ~eps:1e-12 (Vec3.axpy 2.0 a b) (Vec3.make 1.0 4.5 8.0));
  check (Alcotest.float 1e-12) "dist of self" 0.0 (Vec3.dist a a)

(* -- Ascii ---------------------------------------------------------------- *)

let test_ascii_table () =
  let s = Ascii.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "line count" 5 (List.length lines);
  Alcotest.(check bool) "header present" true (String.length (List.nth lines 0) > 0);
  Alcotest.check_raises "ragged row" (Invalid_argument "Ascii.table: ragged row") (fun () ->
      ignore (Ascii.table ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_ascii_bars () =
  let s =
    Ascii.stacked_bars ~title:"T" ~segments:[ "x"; "y" ]
      ~rows:[ ("one", [| 1.0; 1.0 |]); ("two", [| 3.0; 1.0 |]) ]
      ~width:20 ()
  in
  Alcotest.(check bool) "contains legend" true
    (String.length s > 0 && String.index_opt s '#' <> None);
  Alcotest.(check bool) "relative label" true
    (let contains sub str =
       let n = String.length sub and m = String.length str in
       let rec go i = i + n <= m && (String.sub str i n = sub || go (i + 1)) in
       go 0
     in
     contains "2.00x" s)

(* -- Seen ------------------------------------------------------------------ *)

(* The generational set against a Hashtbl reference under random add, mem
   and clear.  A generation adds up to 1500 keys, enough to double the
   table from its 64 initial slots several times, and keys pack (block,
   node) the way the presended set does, node 1023 included.  Half the keys
   come from a small range, so adds and mems hit keys already present. *)
let test_seen_matches_hashtbl =
  let key =
    let pack b node = Nodeset.pack b ~node in
    QCheck2.Gen.(
      oneof
        [
          map2 pack (int_range 0 3000) (int_range 0 1023);
          map2 pack (int_range 0 20) (oneofl [ 0; 1; 1022; 1023 ]);
        ])
  in
  qtest ~count:50 "seen = Hashtbl under add, mem and clear"
    QCheck2.Gen.(list_size (int_range 1 3) (list_size (int_range 0 1500) (pair bool key)))
    (fun generations ->
      let s = Seen.create () and r = Hashtbl.create 16 in
      List.for_all
        (fun ops ->
          (* Clearing forgets every key of the previous generation. *)
          Seen.clear s;
          let forgotten = Hashtbl.fold (fun k () ok -> ok && not (Seen.mem s k)) r true in
          Hashtbl.reset r;
          forgotten
          && List.for_all
               (fun (add, k) ->
                 let present = Hashtbl.mem r k in
                 if add then begin
                   Hashtbl.replace r k ();
                   Seen.add s k = not present
                 end
                 else Seen.mem s k = present)
               ops
          && Hashtbl.fold (fun k () ok -> ok && Seen.mem s k) r true)
        generations)

let suite =
  [
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "copy" `Quick test_prng_copy;
        Alcotest.test_case "split" `Quick test_prng_split;
        Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
        test_prng_int_range;
        test_prng_float_range;
        test_prng_shuffle_permutation;
      ] );
    ( "util.bitvec",
      [
        Alcotest.test_case "basic" `Quick test_bitvec_basic;
        Alcotest.test_case "bounds" `Quick test_bitvec_bounds;
        Alcotest.test_case "union change-flag" `Quick test_bitvec_union_change;
        Alcotest.test_case "diff/inter" `Quick test_bitvec_diff_inter;
        Alcotest.test_case "fill" `Quick test_bitvec_fill;
        Alcotest.test_case "fill canonical" `Quick test_bitvec_fill_canonical;
        test_bitvec_roundtrip;
        test_bitvec_union_commutes;
      ] );
    ( "util.nodeset",
      [
        Alcotest.test_case "basic" `Quick test_nodeset_basic;
        Alcotest.test_case "set ops" `Quick test_nodeset_ops;
        Alcotest.test_case "bounds" `Quick test_nodeset_bounds;
        Alcotest.test_case "canonical representation" `Quick test_nodeset_canonical;
        Alcotest.test_case "remove/choose empty" `Quick test_nodeset_remove_choose_empty;
      ] );
    ("util.seen", [ test_seen_matches_hashtbl ]);
    ( "util.stats",
      [
        Alcotest.test_case "summary" `Quick test_stats_summary;
        Alcotest.test_case "max_index" `Quick test_stats_max_index;
        Alcotest.test_case "relative" `Quick test_stats_relative;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "quantile" `Quick test_stats_quantile;
        Alcotest.test_case "quantile errors" `Quick test_stats_quantile_errors;
        Alcotest.test_case "sample stddev" `Quick test_stats_stddev_sample;
      ] );
    ("util.vec3", [ Alcotest.test_case "algebra" `Quick test_vec3_algebra ]);
    ( "util.ascii",
      [
        Alcotest.test_case "table" `Quick test_ascii_table;
        Alcotest.test_case "stacked bars" `Quick test_ascii_bars;
      ] );
  ]
