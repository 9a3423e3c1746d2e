type t = { block_of : int array; count : int }

let trivial nb_states = { block_of = Array.make nb_states 0; count = 1 }
let same_block p a b = p.block_of.(a) = p.block_of.(b)
