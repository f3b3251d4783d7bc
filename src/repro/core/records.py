"""How the records that cross the wire often are pickled.

A frozen slotted dataclass pickles through ``dataclasses``' generic
state functions, which list its fields again for every object.  A record
decorated with :func:`wire_record` pickles instead as its class and a
tuple of its fields, and is rebuilt through ``__init__``, so validation
in ``__post_init__`` runs on the receiver too.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter

__all__ = ["wire_record"]


def wire_record(cls: type) -> type:
    """Make the dataclass ``cls`` reduce to ``(cls, (field, ...))``.

    The field tuple comes from one :func:`operator.attrgetter` built here,
    once per class, so reducing a record makes it in C.  The rule is set
    as ``__reduce_ex__``, which pickle calls first: through ``__reduce__``
    it would cost one more call per object.  Apply it above
    ``@dataclass``, to the class that decorator returns; ``cls`` needs at
    least two fields (``attrgetter`` of one name returns no tuple, and
    pickling such a record fails).
    """
    values = attrgetter(*(field.name for field in fields(cls)))

    def __reduce_ex__(self, protocol):
        return type(self), values(self)

    cls.__reduce_ex__ = __reduce_ex__
    return cls
