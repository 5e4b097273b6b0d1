type t = { names : string array; matrix : float array array }

let num_cities t = Array.length t.names
let one_way t a b = t.matrix.(a).(b)
let city_of_node t node = node mod num_cities t

(* Region-pair one-way baselines in milliseconds, roughly calibrated to
   public inter-city ping statistics. Region order: north america,
   europe, asia, south america, oceania, africa. *)
let region_base =
  (* Symmetric matrix indexed by region pairs, one-way ms. *)
  [| (* na    eu     as     sa     oc     af *)
     [| 18.; 45.; 80.; 60.; 75.; 90. |];
     [| 45.; 12.; 90.; 95.; 130.; 60. |];
     [| 80.; 90.; 25.; 140.; 60.; 110. |];
     [| 60.; 95.; 140.; 15.; 120.; 110. |];
     [| 75.; 130.; 60.; 120.; 10.; 135. |];
     [| 90.; 60.; 110.; 110.; 135.; 20. |] |]

let cities =
  (* name, region index *)
  [| ("newyork", 0); ("losangeles", 0); ("chicago", 0); ("toronto", 0);
     ("seattle", 0); ("dallas", 0); ("miami", 0); ("denver", 0);
     ("london", 1); ("amsterdam", 1); ("frankfurt", 1); ("paris", 1);
     ("madrid", 1); ("stockholm", 1); ("warsaw", 1); ("zurich", 1);
     ("tokyo", 2); ("singapore", 2); ("hongkong", 2); ("seoul", 2);
     ("mumbai", 2); ("bangkok", 2); ("taipei", 2); ("jakarta", 2);
     ("saopaulo", 3); ("buenosaires", 3); ("santiago", 3);
     ("sydney", 4); ("auckland", 4);
     ("johannesburg", 5); ("cairo", 5); ("lagos", 5) |]

(* Deterministic perturbation in [0.8, 1.2] from the pair of names, so
   the matrix is stable across runs without shipping a dataset. *)
let perturbation a b =
  let key = if a <= b then a ^ "|" ^ b else b ^ "|" ^ a in
  let h = Lo_crypto.Sha256.hash_to_int key in
  0.8 +. (0.4 *. float_of_int (h land 0xFFFF) /. 65535.)

let default =
  let n = Array.length cities in
  let names = Array.map fst cities in
  let matrix =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 0.002 (* same data centre: 2 ms *)
            else begin
              let name_i, region_i = cities.(i) in
              let name_j, region_j = cities.(j) in
              let base = region_base.(region_i).(region_j) in
              base *. perturbation name_i name_j /. 1000.
            end))
  in
  { names; matrix }

let uniform ~one_way =
  { names = [| "uniform" |]; matrix = [| [| one_way |] |] }
