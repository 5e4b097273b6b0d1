(** EINTR-safe wrappers for the Unix syscalls the live backend uses.

    The cluster supervisor signals its children (chaos SIGKILLs go to
    siblings, but SIGCHLD and tty signals reach everyone), so any
    blocking syscall in a host or in the supervisor itself can fail
    spuriously with [Unix_error (EINTR, _, _)]. Each wrapper simply
    restarts the call; none of them swallows any other error. *)

val read : Unix.file_descr -> bytes -> int -> int -> int
val write : Unix.file_descr -> bytes -> int -> int -> int

val select :
  Unix.file_descr list ->
  Unix.file_descr list ->
  Unix.file_descr list ->
  float ->
  Unix.file_descr list * Unix.file_descr list * Unix.file_descr list
(** On EINTR returns [([], [], [])] instead of restarting: the caller's
    loop recomputes its timeout from the clock anyway, and restarting
    with the original timeout could over-sleep past a deadline. *)

val accept : Unix.file_descr -> Unix.file_descr * Unix.sockaddr
val waitpid : Unix.wait_flag list -> int -> int * Unix.process_status
