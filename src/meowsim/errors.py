"""Exception hierarchy shared across the simulator."""


class MeowError(Exception):
    """Base class for all package-specific errors."""


class WrongType(MeowError, TypeError):
    """An input field holds a value of the wrong type, such as "32000" for an int."""


# --- topology -----------------------------------------------------------

class SegmentCountExceeded(MeowError):
    """A topology declared more EtherCAT segments than one controller supports."""


class EmptySegment(MeowError):
    """A segment spec with zero devices."""


class SegmentTooLong(MeowError):
    """A segment with more devices than one cyclic datagram can carry."""


class NegativeTiming(MeowError):
    """A timing parameter or phase below zero."""


class UnknownTarget(MeowError):
    """A (segment, device) pair not in the topology, as a target or a measurement."""


# --- codec --------------------------------------------------------------

class CodecError(MeowError):
    """Base class for wire-format errors."""


class OversizeFrame(CodecError):
    """Encoded frame would exceed the Ethernet payload budget."""


class TruncatedFrame(CodecError):
    """Byte buffer ends before the declared frame content does."""


class BadType(CodecError):
    """Frame header type nibble is not an EtherCAT PDU frame."""


class LengthMismatch(CodecError):
    """Declared lengths disagree with the bytes actually present."""


class UnknownCommand(CodecError):
    """Datagram command byte outside the EtherCAT command set."""


class UnsupportedCommand(CodecError):
    """Datagram command valid on the wire but not applicable here."""


# --- engine -------------------------------------------------------------

class SchedulingInPast(MeowError):
    """An event was scheduled before the current virtual clock."""


# --- device controller --------------------------------------------------

class DuplicateRequestId(MeowError):
    """A request id was submitted twice."""


class UnknownRequest(MeowError):
    """No record of the given request id."""


class NotYetComplete(MeowError):
    """Completion report asked for before the request finished."""


# --- bench ----------------------------------------------------------------

class IoFailure(MeowError):
    """A file could not be read or written, or a socket could not listen."""


# --- network controller -------------------------------------------------

class NoCapacity(MeowError):
    """No free switch word satisfies the allocation."""


class WrongState(MeowError):
    """Path operation not legal in the path's current state."""


class UnknownPath(MeowError):
    """No path table entry with the given id."""
