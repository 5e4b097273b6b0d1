let rec read fd buf off len =
  try Unix.read fd buf off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read fd buf off len

let rec write fd buf off len =
  try Unix.write fd buf off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> write fd buf off len

let select r w e timeout =
  try Unix.select r w e timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])

let rec accept fd =
  try Unix.accept fd
  with Unix.Unix_error (Unix.EINTR, _, _) -> accept fd

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid
