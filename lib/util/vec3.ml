type t = { x : float; y : float; z : float }

let zero = { x = 0.0; y = 0.0; z = 0.0 }
let make x y z = { x; y; z }
let add a b = { x = a.x +. b.x; y = a.y +. b.y; z = a.z +. b.z }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y; z = a.z -. b.z }
let scale s a = { x = s *. a.x; y = s *. a.y; z = s *. a.z }
let neg a = scale (-1.0) a
let dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)
let norm2 a = dot a a
let dist2 a b = norm2 (sub a b)
let dist a b = sqrt (dist2 a b)
let axpy a x y = add (scale a x) y

let equal ?(eps = 0.0) a b =
  Float.abs (a.x -. b.x) <= eps
  && Float.abs (a.y -. b.y) <= eps
  && Float.abs (a.z -. b.z) <= eps

let pp ppf a = Format.fprintf ppf "(%g, %g, %g)" a.x a.y a.z
