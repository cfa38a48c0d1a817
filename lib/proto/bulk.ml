(* Run coalescing is array-based: one allocation, a monomorphic merge sort
   (OCaml's [Array.sort] is a heap sort, several times slower on these
   arrays) and a single backwards scan that drops duplicates while folding
   maximal [start, len] runs — no intermediate sorted list.  [runs_of_owned]
   sorts its argument, so it only ever receives arrays this module
   allocated: the public entry points hand it a fresh copy. *)

let runs_of_owned a =
  let n = Array.length a in
  if n = 0 then []
  else begin
    Array.stable_sort Int.compare a;
    let acc = ref [] in
    let hi = ref a.(n - 1) in
    let lo = ref a.(n - 1) in
    for k = n - 2 downto 0 do
      let b = a.(k) in
      if b = !lo then () (* duplicate *)
      else if b = !lo - 1 then lo := b
      else begin
        acc := (!lo, !hi - !lo + 1) :: !acc;
        hi := b;
        lo := b
      end
    done;
    (!lo, !hi - !lo + 1) :: !acc
  end

let runs_of_array a = runs_of_owned (Array.copy a)

(* The presend and merge queues prepend blocks in ascending scan order, so
   their lists arrive strictly descending: those fold straight into runs,
   the same backwards scan as above, and only other lists pay the sort. *)
exception Unordered

let runs blocks =
  let rec fold acc hi lo = function
    | [] -> (lo, hi - lo + 1) :: acc
    | b :: rest ->
        if b = lo - 1 then fold acc hi b rest
        else if b < lo then fold ((lo, hi - lo + 1) :: acc) b b rest
        else raise_notrace Unordered
  in
  match blocks with
  | [] -> []
  | b :: rest -> ( try fold [] b b rest with Unordered -> runs_of_owned (Array.of_list blocks))

let message_count blocks = List.length (runs blocks)
