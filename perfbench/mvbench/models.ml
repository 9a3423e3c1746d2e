(* Workload inputs, all derived from the seed.

   Sizes and answers do not depend on the seed: it only renames gates
   (verify_chain, perf_tandem), rotates the initial grant slot
   (ooc_grant) and drives the request plan (serve_mixed). That lets a
   claim be re-checked on a seed nobody tuned for. *)

let tag seed = Printf.sprintf "s%d" (abs seed mod 1_000_000)

(* ---------------------------------------------------------------- *)
(* Buffer chains (verify_chain, serve_mixed)                          *)

(* [k] two-place buffers wired input-to-output: 3^k states, and a
   (2k+1)-state counter once the internal gates are hidden. *)
let chain_text ~input ~output ~internal ~hide =
  let gates = Array.of_list ((input :: internal) @ [ output ]) in
  let buf i = Printf.sprintf "Buf[%s, %s](0)" gates.(i) gates.(i + 1) in
  let k = Array.length gates - 1 in
  let rec wire acc i =
    if i >= k then acc
    else wire (Printf.sprintf "(%s |[%s]| %s)" acc gates.(i) (buf i)) (i + 1)
  in
  let body = wire (buf 0) 1 in
  Printf.sprintf
    {|process Buf [input, output] (n : int[0..2]) :=
    [n < 2] -> input ; Buf[input, output](n + 1)
 [] [n > 0] -> output ; Buf[input, output](n - 1)
init %s
|}
    (if hide && internal <> [] then
       Printf.sprintf "hide %s in %s" (String.concat ", " internal) body
     else body)

type chain = {
  text : string;
  input : string;
  output : string;
  internal : string list;
}

let verify_chain ~seed ~k =
  let t = tag seed in
  let internal = List.init (k - 1) (fun i -> Printf.sprintf "g%d_%s" (i + 1) t) in
  let input = "put_" ^ t and output = "get_" ^ t in
  { text = chain_text ~input ~output ~internal ~hide:false; input; output; internal }

(* ---------------------------------------------------------------- *)
(* xSTream tandem (perf_tandem)                                       *)

(* Rename whole identifiers of [text] through [f]. *)
let rename_idents f text =
  let b = Buffer.create (String.length text) in
  let n = String.length text in
  let is_start c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let is_part c = is_start c || (c >= '0' && c <= '9') in
  let i = ref 0 in
  while !i < n do
    if is_start text.[!i] && (!i = 0 || not (is_part text.[!i - 1])) then begin
      let j = ref !i in
      while !j < n && is_part text.[!j] do incr j done;
      Buffer.add_string b (f (String.sub text !i (!j - !i)));
      i := !j
    end
    else begin
      Buffer.add_char b text.[!i];
      incr i
    end
  done;
  Buffer.contents b

type tandem = { tandem_text : string; pop : string }

let tandem ~seed ~capacity ~arrival ~transfer ~service =
  let t = tag seed in
  let spec =
    Mv_xstream.Queues.tandem ~arrival ~transfer ~service ~capacity1:capacity
      ~capacity2:capacity
  in
  let rename = function
    | ("push" | "push2" | "mid" | "pop") as g -> g ^ "_" ^ t
    | id -> id
  in
  {
    tandem_text = rename_idents rename (Mv_calc.Ast.spec_to_string spec);
    pop = "pop_" ^ t;
  }

(* ---------------------------------------------------------------- *)
(* Grant tandem (ooc_grant)                                           *)

(* m * 10^n states: an n-stage tandem of capacity-9 buffers crossed
   with an m-slot one-hot grant that advances on every action but
   gates nothing, so the strong quotient folds the grant away and
   leaves the 10^n tandem. m is coprime with n+1, which makes every
   (tandem, grant) pair reachable; the seed picks the initial slot,
   and rotating it is an isomorphism, so counts and the quotient's
   bytes are the same for every seed. *)
module Grant_state = struct
  type t = int array

  let equal = ( = )
  let hash t = Hashtbl.hash (Marshal.to_string t [ Marshal.No_sharing ])
end

module Grant_explore = Mv_lts.Explore.Make (Grant_state)

type grant = {
  states : int;
  initial : int array;
  successors : int array -> (string * int array) list;
}

let grant ~seed ~n ~m =
  let c = 9 in
  let move s edits =
    let t = Array.copy s in
    List.iter (fun (i, d) -> t.(i) <- t.(i) + d) edits;
    let g = ref 0 in
    for j = 0 to m - 1 do
      if s.(n + j) = 1 then g := j
    done;
    t.(n + !g) <- 0;
    t.(n + ((!g + 1) mod m)) <- 1;
    t
  in
  let successors s =
    let moves = ref [] in
    if s.(n - 1) > 0 then moves := [ ("dep", move s [ (n - 1, -1) ]) ];
    for i = n - 2 downto 0 do
      if s.(i) > 0 && s.(i + 1) < c then
        moves := (Printf.sprintf "mv%d" i, move s [ (i, -1); (i + 1, 1) ]) :: !moves
    done;
    if s.(0) < c then moves := ("arr", move s [ (0, 1) ]) :: !moves;
    !moves
  in
  let slot = abs seed mod m in
  {
    states = m * int_of_float (Float.pow 10. (float n));
    initial = Array.init (n + m) (fun i -> if i = n + slot then 1 else 0);
    successors;
  }

(* ---------------------------------------------------------------- *)
(* Request plan (serve_mixed)                                         *)

(* One client's closed-loop request stream. A cold request names a
   model never sent before (its own input gate, 4 or 5 buffers); a
   warm one replays a model this client already got an answer for,
   so it must be served from the cache. *)
type request = { model : int; buffers : int; cold : bool }

(* [count] requests of one client; model ids are disjoint between
   clients. Exactly one request in four is cold, the first among them,
   and cold models alternate between 4 and 5 buffers, so the work of a
   plan does not depend on the seed; the seed places the cold requests
   and picks the models the warm ones replay. *)
let client_plan ~seed ~clients ~client ~count =
  let rng = Random.State.make [| seed; client |] in
  let cold = Array.init count (fun i -> i < max 1 (count / 4)) in
  for i = count - 1 downto 2 do
    let j = 1 + Random.State.int rng i in
    let c = cold.(i) in
    cold.(i) <- cold.(j);
    cold.(j) <- c
  done;
  let answered = ref [] and fresh = ref 0 in
  List.init count (fun i ->
      if cold.(i) then begin
        let r = { model = (!fresh * clients) + client; buffers = 4 + (!fresh mod 2); cold = true } in
        incr fresh;
        answered := r :: !answered;
        r
      end
      else
        let r = List.nth !answered (Random.State.int rng (List.length !answered)) in
        { r with cold = false })

let serve_model_text ~seed r =
  let t = tag seed in
  chain_text
    ~input:(Printf.sprintf "push%d_%s" r.model t)
    ~output:("pop_" ^ t)
    ~internal:(List.init (r.buffers - 1) (fun i -> Printf.sprintf "g%d" i))
    ~hide:true
