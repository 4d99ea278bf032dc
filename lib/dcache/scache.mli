(** The specialised stack cache (§3.1).

    "The stack cache holds stack frames in a circular buffer managed as
    a linked list. A presence check is made at procedure entrance and
    exit time. The stack cache is assumed to hold at least two frames
    so leaf procedures can avoid the exit check."

    Frames are pushed on procedure entry and popped on exit; when the
    buffer overflows, the deepest frames spill to the server, and a
    pop of a spilled frame refills it. *)

type t

val create : frames:int -> t
(** @raise Invalid_argument if [frames < 2]. *)

val enter : t -> bool
(** Push a frame; [true] when the buffer was full and its deepest frame
    spilled to the server (always exactly one), [false] when the frame
    fit with no traffic. *)

val leave : t -> bool
(** Pop a frame; [true] when the frame returned into had been spilled
    and was refilled (one frame), [false] when it was resident. Leaving
    below an empty logical stack is tolerated (the initial frame is
    implicit) and refills nothing. *)

val depth : t -> int
(** Current logical call depth. *)

val resident : t -> int
(** Frames actually held in the buffer. *)

val spills : t -> int
val refills : t -> int
