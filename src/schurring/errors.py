"""Exception hierarchy shared by the whole package."""


class SchurRingError(Exception):
    """Base class for all errors raised by this package."""


class NotAPartition(SchurRingError):
    pass


class ZeroClassNotSingleton(SchurRingError):
    pass


class NotInverseClosed(SchurRingError):
    def __init__(self, class_elements):
        self.class_elements = tuple(class_elements)
        super().__init__(f"negation of class {self.class_elements} is not a class")


class NotClosedUnderProduct(SchurRingError):
    def __init__(self, x_class, y_class, z1, z2):
        self.x_class = x_class
        self.y_class = y_class
        self.z1 = z1
        self.z2 = z2
        super().__init__(
            f"classes {x_class} * {y_class}: unequal counts at {z1} and {z2}"
        )


class NotAnAGroup(SchurRingError):
    pass


class NotCoprime(SchurRingError):
    pass


class NotComplementary(SchurRingError):
    pass


class IncompatibleSection(SchurRingError):
    def __init__(self, left_section, right_section):
        self.left_section = left_section
        self.right_section = right_section
        super().__init__(
            "section rings disagree: %r vs %r" % (left_section, right_section)
        )


class SectionActionMismatch(SchurRingError):
    pass


class SearchBudgetExceeded(SchurRingError):
    pass


class NotNonSchurian(SchurRingError):
    pass


class CapExceeded(SchurRingError):
    pass
