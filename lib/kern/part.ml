type t = {
  elems : int array; (* states, grouped by block into contiguous slices *)
  loc : int array; (* position of each state in [elems] *)
  blk : int array; (* block id of each state *)
  first : int array; (* slice start, per block *)
  last_ : int array; (* slice end (exclusive), per block *)
  mid : int array; (* marked states occupy [first .. mid - 1] *)
  mutable count : int;
}

let create n =
  if n < 1 then invalid_arg "Part.create";
  let t =
    {
      elems = Array.init n (fun i -> i);
      loc = Array.init n (fun i -> i);
      blk = Array.make n 0;
      first = Array.make n 0;
      last_ = Array.make n 0;
      mid = Array.make n 0;
      count = 1;
    }
  in
  t.last_.(0) <- n;
  t

let count t = t.count
let block_of t s = t.blk.(s)
let size t b = t.last_.(b) - t.first.(b)
let marked t b = t.mid.(b) - t.first.(b)

let iter_block t b f =
  for i = t.first.(b) to t.last_.(b) - 1 do
    f t.elems.(i)
  done

let mark t s =
  let b = t.blk.(s) in
  let i = t.loc.(s) in
  let m = t.mid.(b) in
  if i >= m then begin
    let u = t.elems.(m) in
    t.elems.(m) <- s;
    t.elems.(i) <- u;
    t.loc.(s) <- m;
    t.loc.(u) <- i;
    t.mid.(b) <- m + 1
  end

let split_marked t b =
  let f = t.first.(b) and m = t.mid.(b) in
  if m = t.last_.(b) then begin
    (* everything marked: no split, just clear the marks *)
    t.mid.(b) <- f;
    -1
  end
  else begin
    let c = t.count in
    t.count <- c + 1;
    t.first.(c) <- f;
    t.mid.(c) <- f;
    t.last_.(c) <- m;
    t.first.(b) <- m;
    t.mid.(b) <- m;
    for i = f to m - 1 do
      t.blk.(t.elems.(i)) <- c
    done;
    c
  end

let assignment t =
  let n = Array.length t.blk in
  let renum = Array.make t.count (-1) in
  let block_of = Array.make n 0 in
  let next = ref 0 in
  for s = 0 to n - 1 do
    let b = t.blk.(s) in
    if renum.(b) < 0 then begin
      renum.(b) <- !next;
      incr next
    end;
    block_of.(s) <- renum.(b)
  done;
  (block_of, t.count)
