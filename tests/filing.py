"""The simplices of a covered complex under each face, for tests that
build geometric cochains value by value.

They are read from the complex's one face filing, ``file_face_ranks``
through ``simplices_of``, once per (complex, k, face size), and kept in
the complex's own cache, so a chart reassignment drops them.
"""

from gerbecalc.nerve import cached


def carried(cc, face, k):
    """The k-simplices of ``cc`` carried by every chart in ``face``, in the
    complex's order."""
    face = tuple(face)

    def build():
        simps = cc.simplices_of(k)
        return {f: tuple(map(simps.__getitem__, ranks))
                for f, ranks in cc.file_face_ranks(k, len(face)).items()}

    return cached(cc, ("carried simplices", k, len(face)), build).get(face, ())
